// Copyright (c) 2026 The ktg Authors.
// Load generator for ktgd (`ktg loadgen`).
//
// Drives a running server over TCP with a pre-generated query workload in
// one of two modes:
//
//   * closed loop — `connections` synchronous clients, each sending the
//     next query the moment its previous response arrives. Measures the
//     server's saturation throughput. Rejected requests are retried after
//     the server's retry_after_ms hint (admission control becomes
//     back-pressure, every query eventually completes).
//   * open loop — requests leave at a fixed arrival rate (rate_qps)
//     regardless of completions, spread round-robin over the connections;
//     a reader thread per connection matches responses by id. Measures
//     latency under a chosen offered load without coordinated omission.
//     Rejects are terminal (counted, not retried) — retrying would break
//     the arrival process.
//
// Latency is measured client-side (send to response) and reported as
// count/mean/min/max/p50/p90/p95/p99. An optional reference oracle makes
// every "ok" response differentially checked against a direct in-process
// engine run of the same query — the zero-incorrect-responses gate of the
// server's acceptance tests.
//
// Mixed read/write mode (write_ratio > 0): a deterministic hash of the
// request slot turns that fraction of slots into `mutate` requests drawn
// sequentially from `mutations`. The server applies batches in arrival
// order — which, under concurrent connections, need not be generation
// order — so the epoch -> batch mapping is learned from the mutate
// *responses* (each carries the epoch it published) and handed to the
// caller via on_mutation_applied. Differential checks are deferred to
// after the run: each checked response is replayed against the epoch its
// serving.epoch names, once the full epoch history is known.

#ifndef KTG_SERVER_LOADGEN_H_
#define KTG_SERVER_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/options.h"
#include "core/query.h"
#include "core/snapshot.h"
#include "keywords/attributed_graph.h"
#include "util/percentiles.h"
#include "util/status.h"

namespace ktg::server {

struct LoadgenOptions {
  /// false = closed loop, true = open loop at rate_qps.
  bool open_loop = false;
  uint32_t connections = 4;
  /// Target arrival rate (open loop only).
  double rate_qps = 100.0;
  /// Stop issuing new queries after this long (0 = run max_queries).
  double duration_s = 5.0;
  /// Hard cap on issued queries, 0 = unlimited; the workload vector is
  /// cycled round-robin, so a small vector + long run is the repeat-heavy
  /// regime that exercises the server's cache and coalescing.
  uint64_t max_queries = 0;
  /// Per-request deadline forwarded on the wire (0 = server default).
  double deadline_ms = 0.0;
  /// Closed loop: honor retry_after_ms and re-send rejected queries.
  bool retry_rejected = true;
  SortStrategy sort = SortStrategy::kVkcDeg;
  /// Per-request execution mode forwarded on the wire. The differential
  /// check (--check) compares complete responses with an oracle run in the
  /// same mode: anytime's tie representatives differ from exact's.
  EngineMode mode = EngineMode::kExact;

  /// Fraction of request slots sent as `mutate` instead of `query`
  /// (0 = read-only). Slots are chosen by a deterministic hash of (seed,
  /// slot index), so a given seed produces the same mix in both loops.
  double write_ratio = 0.0;
  /// The mutation workload, consumed sequentially by write slots (writes
  /// beyond the vector fall back to reads). Batches may be applied out of
  /// generation order under concurrency; see the header comment.
  std::vector<MutationBatch> mutations;
  /// Seed of the write-slot hash.
  uint64_t seed = 1;

  /// Invoked once per successful mutate response with the epoch the
  /// server published for mutation batch `mutation_index`. Called from
  /// loadgen threads; the callee synchronizes. The caller uses it to
  /// build the epoch -> batch history the `reference` oracle replays.
  std::function<void(uint64_t epoch, size_t mutation_index)>
      on_mutation_applied;

  /// Differential oracle: the expected result of workload query
  /// `query_index` computed against the snapshot of `epoch`. Called after
  /// the run has fully drained (so the epoch history is complete), from
  /// the coordinating thread only. Null disables checking.
  std::function<const KtgResult*(size_t query_index, uint64_t epoch)>
      reference;
};

struct LoadgenReport {
  uint64_t sent = 0;        ///< query requests put on the wire (incl. retries)
  uint64_t completed = 0;   ///< "ok" responses
  uint64_t coalesced = 0;   ///< ok responses served by another run
  uint64_t incomplete = 0;  ///< ok responses with a truncated search
  uint64_t rejected = 0;    ///< admission rejections received
  uint64_t retried = 0;     ///< rejections re-sent (closed loop)
  uint64_t timeouts = 0;
  uint64_t errors = 0;
  uint64_t checked = 0;     ///< responses compared against the oracle
  uint64_t mismatches = 0;  ///< differential failures (must be 0)
  uint64_t mutations_sent = 0;     ///< mutate requests put on the wire
  uint64_t mutations_applied = 0;  ///< "ok" mutate responses
  uint64_t mutations_failed = 0;   ///< non-ok mutate responses
  uint64_t final_epoch = 0;  ///< highest epoch observed in any response
  double wall_s = 0;
  double qps = 0;  ///< completed / wall_s
  LatencySummary latency;
  double p95 = 0;

  std::string ToJson() const;
};

/// Runs the configured load against ktgd at host:port. The graph is the
/// same dataset the server was seeded with (needed to render keyword ids
/// back into wire terms). Errors only on setup failure (cannot connect,
/// empty workload); protocol-level failures are counted in the report.
Result<LoadgenReport> RunLoadgen(const std::string& host, uint16_t port,
                                 const AttributedGraph& graph,
                                 const std::vector<KtgQuery>& queries,
                                 const LoadgenOptions& options);

}  // namespace ktg::server

#endif  // KTG_SERVER_LOADGEN_H_
