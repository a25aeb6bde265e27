// ktg_perfbench --workload NAME --seed N --seconds S --trace 0|1
//               [--trace-out PATH]
//
// Runs one benchmark workload in-process and prints, as the last line of
// standard output, {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Sample counts and the percentiles actually reported go to stderr. Any
// set-up failure exits 1 with a message naming the workload and the step;
// a watchdog ends a run that overstays its time limit with exit code 3.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "run.h"
#include "util/bitset_ops.h"

namespace perfbench {

namespace {
cpu_set_t g_start_cpus;  // the affinity the process started with
cpu_set_t g_one_cpu;     // the single CPU workloads run on
int g_cpu = -1;          // its number

// Steal time of CPU `cpu` so far, from its /proc/stat line (the eighth
// value, in clock ticks); 0 when unavailable.
int64_t StealNs(int cpu) {
  if (cpu < 0) return 0;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  char line[512];
  char want[32];
  std::snprintf(want, sizeof(want), "cpu%d ", cpu);
  unsigned long long v[8] = {};
  bool found = false;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, want, std::strlen(want)) != 0) continue;
    found = std::sscanf(line + std::strlen(want),
                        "%llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                        &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                        &v[7]) == 8;
    break;
  }
  std::fclose(f);
  const long hz = sysconf(_SC_CLK_TCK);
  if (!found || hz <= 0) return 0;
  return static_cast<int64_t>(v[7]) * (1'000'000'000 / hz);
}
}  // namespace

void PinToOneCpu() {
  CPU_ZERO(&g_start_cpus);
  CPU_ZERO(&g_one_cpu);
  if (sched_getaffinity(0, sizeof(g_start_cpus), &g_start_cpus) != 0) return;
  g_one_cpu = g_start_cpus;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &g_start_cpus)) continue;
    CPU_ZERO(&g_one_cpu);
    CPU_SET(cpu, &g_one_cpu);
    g_cpu = cpu;
    break;
  }
  sched_setaffinity(0, sizeof(g_one_cpu), &g_one_cpu);
}

AllCpusScope::AllCpusScope() {
  sched_setaffinity(0, sizeof(g_start_cpus), &g_start_cpus);
}

AllCpusScope::~AllCpusScope() {
  sched_setaffinity(0, sizeof(g_one_cpu), &g_one_cpu);
}

double PeakRssMb() {
  // VmHWM, not getrusage: ru_maxrss survives execve and would count the
  // launching process's memory.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

void AddTail(RunOutput* out, const std::string& name, const TailPercentile& t,
             const std::string& unit) {
  out->Add(name, t.value, unit);
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s = p%.2f of %zu samples", name.c_str(),
                t.q * 100.0, t.n);
  out->Note(buf);
}

void NoteClock(RunOutput* out, const std::vector<float>& cpu_ms,
               const std::vector<double>& ref_ms, const SpeedTrack& track) {
  const std::vector<double> cpu(cpu_ms.begin(), cpu_ms.end());
  const std::vector<double>& b = track.batch_ns();
  char buf[240];
  std::snprintf(buf, sizeof(buf),
                "window median %.4f CPU ms = %.4f ref_ms; %zu calibrations, "
                "reference %.0f..%.0f ns (median %.0f, unit %.0f)",
                Median(cpu), Median(ref_ms), b.size(),
                b.empty() ? 0.0 : *std::min_element(b.begin(), b.end()),
                b.empty() ? 0.0 : *std::max_element(b.begin(), b.end()),
                Median(b), kReferenceNs);
  out->Note(buf);
}

ClockReading ClockReading::Now() {
  ClockReading r;
  r.steal_ns = StealNs(g_cpu);
  r.wall_ns = NowNs();
  r.cpu_ns = CpuNs();
  return r;
}

ClockShares SharesBetween(const ClockReading& a, const ClockReading& b) {
  ClockShares s;
  const double wall = static_cast<double>(b.wall_ns - a.wall_ns);
  const double steal = static_cast<double>(b.steal_ns - a.steal_ns);
  if (wall <= 0) return s;
  s.steal_frac = std::clamp(steal / wall, 0.0, 1.0);
  const double own = wall - std::min(steal, wall);
  s.cpu_share = own > 0 ? static_cast<double>(b.cpu_ns - a.cpu_ns) / own
                        : 0.0;
  return s;
}

void NoteShares(RunOutput* out, const ClockShares& s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "window: steal %.3f of wall time, process CPU %.3f of the "
                "rest",
                s.steal_frac, s.cpu_share);
  out->Note(buf);
}

void NoteSelfTimes(RunOutput* out,
                   const std::vector<std::vector<Span>>& logs) {
  std::map<std::string, NameTotals> totals;
  for (const std::vector<Span>& log : logs) {
    for (const auto& [name, t] : SelfTimeByName(log)) {
      totals[name].count += t.count;
      totals[name].self_ns += t.self_ns;
    }
  }
  for (const auto& [name, t] : totals) {
    char buf[200];
    std::snprintf(buf, sizeof(buf), "self time %s: %llu spans, %.3f ms",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  static_cast<double>(t.self_ns) / 1e6);
    out->Note(buf);
  }
}

namespace {

// Hard wall-clock limit of one run; the benchmark contract allows 180 s.
constexpr int kWatchdogSeconds = 170;

int Fail(const std::string& workload, const std::string& step,
         const std::string& message) {
  std::fprintf(stderr, "error: workload %s: %s: %s\n", workload.c_str(),
               step.c_str(), message.c_str());
  return 1;
}

// Ends the process if the run is still going after kWatchdogSeconds.
class Watchdog {
 public:
  explicit Watchdog(std::string workload)
      : workload_(std::move(workload)), thread_([this] { Watch(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  void Watch() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_for(lock, std::chrono::seconds(kWatchdogSeconds),
                      [this] { return done_; })) {
      std::fprintf(stderr, "error: workload %s: exceeded %d s, aborting\n",
                   workload_.c_str(), kWatchdogSeconds);
      std::fflush(stderr);
      std::_Exit(3);
    }
  }

  std::string workload_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // declared last: starts after the members it uses
};

struct Flags {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

bool ParseFlags(int argc, char** argv, Flags* f, std::string* err) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      *err = "missing value for " + key;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      f->workload = value;
    } else if (key == "--seed") {
      f->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        *err = "--seed takes a non-negative integer";
        return false;
      }
    } else if (key == "--seconds") {
      f->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(f->seconds > 0) ||
          f->seconds > 120) {
        *err = "--seconds takes a number in (0, 120]";
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        *err = "--trace takes 0 or 1";
        return false;
      }
      f->trace = value == "1";
    } else if (key == "--trace-out") {
      f->trace_out = value;
    } else {
      *err = "unknown flag " + key;
      return false;
    }
  }
  if (f->workload.empty() || f->seconds <= 0 || f->trace < 0) {
    *err = "--workload, --seed, --seconds and --trace are required";
    return false;
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Flags flags;
  std::string err;
  if (!ParseFlags(argc, argv, &flags, &err)) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 2;
  }
  const auto spec = LookupWorkload(flags.workload);
  if (!spec.ok()) {
    return Fail(flags.workload, "lookup", spec.status().message());
  }
  PinToOneCpu();
  Watchdog watchdog(flags.workload);
  const std::string calibration = SharedCalibrator().Start();
  if (!calibration.empty()) {
    return Fail(flags.workload, "calibration", calibration);
  }

  auto inputs = MakeInputs(*spec, flags.seed);
  if (!inputs.ok()) {
    return Fail(flags.workload, "inputs", inputs.status().ToString());
  }
  RunArgs args;
  args.seconds = flags.seconds;
  args.trace = flags.trace == 1;
  args.trace_path = flags.trace_out;
  auto out = spec->served ? RunServed(*spec, *inputs, args)
                          : RunTail(*spec, *inputs, args);
  if (!out.ok()) return Fail(flags.workload, "run", out.status().ToString());

  std::fprintf(stderr,
               "env: workload=%s seed=%llu nproc=%u (run pinned to one) "
               "kernel_tier=%s graph n=%u m=%llu\n",
               flags.workload.c_str(),
               static_cast<unsigned long long>(flags.seed),
               std::thread::hardware_concurrency(), ktg::KernelDispatchName(),
               inputs->graph.num_vertices(),
               static_cast<unsigned long long>(inputs->graph.num_edges()));
  for (const std::string& note : out->notes) {
    std::fprintf(stderr, "note: %s\n", note.c_str());
  }
  std::fprintf(stderr, "failed_frac: %.6g (%llu of %llu attempts)\n",
               out->tally.failed_frac(),
               static_cast<unsigned long long>(out->tally.failed()),
               static_cast<unsigned long long>(out->tally.attempted));
  std::printf("%s\n", ResultLine(out->correct, out->tally, out->metrics)
                          .c_str());
  std::fflush(stdout);
  return 0;
}
