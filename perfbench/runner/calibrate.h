// Host speed. On a shared VM the same work takes up to about twice as long
// from one second to the next, with no steal time to show for it (other
// tenants on the host's cores, caches and memory). The benchmark therefore
// interleaves a fixed reference workload of its own with the program's
// work, every 100 ms or so, and expresses the program's CPU time in
// reference time: CPU time times kReferenceNs over what the reference
// workload took around it.
//
// The reference has two parts because ktg's work has two kinds: graph
// search in user space, and (for ktgd) socket round trips and thread
// wake-ups in the kernel. A BFS batch alone followed serve_read's CPU cost
// per read only in part; with the loopback echo added, over six runs each
// on a 4-vCPU KVM guest, the spread of the cost per read in reference
// time (coefficient of variation) was 0.027 on serve_read, 0.018 on
// paper_tail and 0.034 on serve_mixed, against 0.105, 0.098 and 0.03 on
// the CPU clock alone.

#ifndef PERFBENCH_CALIBRATE_H_
#define PERFBENCH_CALIBRATE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// CPU-clock nanoseconds of one reference measurement on a quiet 4-vCPU
/// x86 VM (Xeon, model 143); the unit of every `ref_ms` figure. Fixed, so
/// that figures of different runs and commits compare.
inline constexpr double kReferenceNs = 1'800'000.0;

/// The reference workload. None of it depends on ktg, so its work is the
/// same at every commit; only the host's speed moves its time.
///  - BFS: bounded (2-hop) BFS from 1024 fixed sources over a fixed random
///    graph of 8192 vertices and 32768 undirected edges (about 300 KiB,
///    cache-resident like ktg's own working set).
///  - Echo: 100 round trips of a 200-byte line over a loopback TCP
///    connection to an echo thread of its own.
class Calibrator {
 public:
  Calibrator();
  ~Calibrator();
  Calibrator(const Calibrator&) = delete;
  Calibrator& operator=(const Calibrator&) = delete;

  /// Opens the echo connection and starts its thread, which inherits the
  /// caller's CPU affinity. Empty on success, else what failed.
  std::string Start();
  /// CPU-clock nanoseconds of one BFS batch plus 100 echo round trips: the
  /// mean of kBatchesPerMeasure BFS batches after one uncounted batch
  /// (which brings the graph back into cache), plus the echo after a few
  /// uncounted round trips. 0 if the echo connection failed.
  double Measure();

 private:
  int64_t RunBatch();
  int64_t RunEcho(int round_trips);

  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> targets_;
  std::vector<uint32_t> stamp_;
  std::vector<uint32_t> frontier_;
  std::vector<uint32_t> next_;
  uint32_t epoch_ = 0;
  uint64_t sink_ = 0;
  int client_fd_ = -1;
  int echo_fd_ = -1;
  std::thread echo_;
};

/// The process's calibrator. Call Start() on it once, right after the
/// process is confined to its CPU and before any measurement.
Calibrator& SharedCalibrator();

/// BFS batches one calibration times (about 2 ms on the reference host).
inline constexpr int kBatchesPerMeasure = 4;

/// Reference-time factor of chunk `c` given every mark's reference time:
/// kReferenceNs over the mean of marks c and c+1 (mark c alone when there
/// is no mark c+1).
double SpeedFactor(const std::vector<double>& batch_ns, size_t c);

/// Calibrations ("marks") taken between stretches of work ("chunks"):
/// chunk c is the work between mark c and mark c+1. Not thread-safe: mark
/// only while no measured work runs.
class SpeedTrack {
 public:
  /// Calibrates now, ending the current chunk and starting the next.
  void Mark();
  /// The chunk work done now belongs to (valid after the first Mark).
  size_t chunk() const { return batch_ns_.size() - 1; }
  /// Reference-time factor of chunk `c` (SpeedFactor).
  double Factor(size_t c) const { return SpeedFactor(batch_ns_, c); }
  /// Process CPU time of chunk `c` outside the calibrations, times its
  /// factor: the chunk's CPU time in reference nanoseconds.
  double ReferenceNs(size_t c) const;
  size_t marks() const { return batch_ns_.size(); }
  /// Reference measurement times, for the notes.
  const std::vector<double>& batch_ns() const { return batch_ns_; }

 private:
  std::vector<double> batch_ns_;
  std::vector<int64_t> begin_cpu_;  // CPU clock as each calibration began
  std::vector<int64_t> end_cpu_;    // and as it ended
};

/// CPU-clock timings, each tagged with the chunk it ran in, for converting
/// to reference time once the track has its closing marks.
struct ChunkedTimes {
  std::vector<float> cpu_ms;  // float: one per request of a long run
  std::vector<uint32_t> chunk;

  void Add(double ms, size_t c) {
    cpu_ms.push_back(static_cast<float>(ms));
    chunk.push_back(static_cast<uint32_t>(c));
  }
  size_t size() const { return cpu_ms.size(); }
  /// Every timing times its chunk's factor, in order.
  std::vector<double> ReferenceMs(const SpeedTrack& track) const;
};

/// `cpu_s[i]` times the factor of chunk i: set-up times measured one
/// chunk each, in reference seconds.
std::vector<double> ReferenceSeconds(const std::vector<double>& cpu_s,
                                     const SpeedTrack& track);

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATE_H_
