// Workload definitions and the inputs each run generates from its seed.

#ifndef PERFBENCH_SETUP_H_
#define PERFBENCH_SETUP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/query.h"
#include "core/snapshot.h"
#include "datagen/presets.h"
#include "harness.h"
#include "keywords/attributed_graph.h"
#include "server/server.h"
#include "server/tcp.h"
#include "util/status.h"

namespace perfbench {

/// The fixed inputs of one workload (spec.json records the same values).
struct WorkloadSpec {
  std::string name;
  bool served = true;          ///< ktgd over TCP (false: direct library)
  std::string preset = "gowalla";
  double scale = 0.25;
  uint32_t p = 4;
  ktg::HopDistance k = 2;
  uint32_t wq = 6;             ///< |W_Q|
  uint32_t n = 5;              ///< N
  uint32_t pool = 8192;        ///< distinct generated queries
  double zipf_s = 0.8;         ///< request popularity over the pool
  double write_share = 0.0;    ///< share of request slots that mutate
  uint32_t engine_threads = 1;
  uint32_t workers = 2;
  uint32_t connections = 4;
  size_t cache_mb = 16;
  /// Mutate batches timed after the window when the workload itself sends
  /// none, so every workload reports a write latency.
  uint32_t write_probes = 0;
};

ktg::Result<WorkloadSpec> LookupWorkload(const std::string& name);

/// Marks a request slot that carries a mutate batch instead of a query.
inline constexpr uint32_t kWriteSlot = ~uint32_t{0};

/// A run's inputs, generated before any timing (see MakeInputs for what
/// the seed decides).
struct Inputs {
  ktg::DatasetSpec dataset;
  ktg::AttributedGraph graph;  ///< the dataset as generated (epoch 0)
  std::vector<ktg::KtgQuery> pool;
  /// Query index per request slot (kWriteSlot for a mutate); cycled.
  std::vector<uint32_t> stream;
  /// Mutate batches in generation order, valid for sequential application.
  std::vector<ktg::MutationBatch> mutations;
};

ktg::Result<Inputs> MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// A started ktgd: KtgServer plus its loopback TcpServer.
struct ServeStack {
  std::unique_ptr<ktg::server::KtgServer> server;
  std::unique_ptr<ktg::server::TcpServer> tcp;
  uint16_t port = 0;

  ServeStack() = default;
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;
  ~ServeStack() { Stop(); }
  /// Stops accepting, drains, joins. Idempotent.
  void Stop();
};

/// One set-up of ktgd, timed on the process CPU clock: dataset build,
/// index build inside Start(), loopback listen. When `log` is set, each
/// step is recorded as a span.
ktg::Status StartServeStack(const WorkloadSpec& spec,
                            const ktg::DatasetSpec& dataset, ServeStack* out,
                            double* seconds, SpanLog* log);

/// Number of set-ups a run times; setup_s is their median.
inline constexpr int kSetupRepeats = 9;

}  // namespace perfbench

#endif  // PERFBENCH_SETUP_H_
