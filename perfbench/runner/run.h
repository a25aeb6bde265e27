// What one benchmark run takes and gives back, shared by the workloads.

#ifndef PERFBENCH_RUN_H_
#define PERFBENCH_RUN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "calibrate.h"
#include "harness.h"
#include "setup.h"

namespace perfbench {

struct RunArgs {
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans ("" = nowhere).
  std::string trace_path;
};

struct RunOutput {
  bool correct = true;
  FailureTally tally;
  std::vector<Metric> metrics;
  /// Human-readable lines for stderr (sample counts, percentiles used).
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

/// Confines the process, and every thread it starts afterwards, to the
/// highest-numbered CPU it may run on. On a shared host, work spread over
/// several vCPUs hands off between them through wake-ups whose latency
/// follows the host's load (throughput moved 4x between runs). On one
/// vCPU that the closed loop keeps busy, the process CPU clock also reads
/// what the wall clock would with the CPU to itself (see CpuNs). Call
/// once, before any thread starts.
void PinToOneCpu();

/// While alive, the calling thread and the threads it starts may use every
/// CPU the process started with: the executor replays, which measure what
/// 4 engine threads gain over 1.
class AllCpusScope {
 public:
  AllCpusScope();
  ~AllCpusScope();
  AllCpusScope(const AllCpusScope&) = delete;
  AllCpusScope& operator=(const AllCpusScope&) = delete;
};

/// Peak resident set size of the process so far, in MiB.
double PeakRssMb();

/// Wall clock, process CPU clock and the steal time of the run's CPU at
/// one instant.
struct ClockReading {
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
  int64_t steal_ns = 0;  ///< from /proc/stat, 10 ms resolution; 0 if absent

  static ClockReading Now();
};

/// Between two readings: the share of the wall time the hypervisor stole
/// from the run's CPU, and the process CPU time over the wall time that
/// was not stolen. The second is about 1 when the run never idles and
/// nothing else shares its CPU, which is what lets CpuNs() stand in for
/// the wall clock; a program that waits on timers or I/O lowers it.
struct ClockShares {
  double steal_frac = 0.0;
  double cpu_share = 0.0;
};
ClockShares SharesBetween(const ClockReading& a, const ClockReading& b);

/// Notes the shares of a window.
void NoteShares(RunOutput* out, const ClockShares& s);

/// serve_read / serve_mixed.
ktg::Result<RunOutput> RunServed(const WorkloadSpec& spec, const Inputs& in,
                                 const RunArgs& args);
/// paper_tail.
ktg::Result<RunOutput> RunTail(const WorkloadSpec& spec, const Inputs& in,
                               const RunArgs& args);

/// Notes each span name's count and summed self time over the logs.
void NoteSelfTimes(RunOutput* out,
                   const std::vector<std::vector<Span>>& logs);

/// Reports a tail timing (TailRule of its samples) under its fixed metric
/// name and notes which percentile the rule picked and from how many
/// samples.
void AddTail(RunOutput* out, const std::string& name, const TailPercentile& t,
             const std::string& unit);

/// Notes the median of a window's timings on the CPU clock and in
/// reference time, and the spread of its calibrations.
void NoteClock(RunOutput* out, const std::vector<float>& cpu_ms,
               const std::vector<double>& ref_ms, const SpeedTrack& track);

}  // namespace perfbench

#endif  // PERFBENCH_RUN_H_
