// Copyright (c) 2026 The ktg Authors.
// The resident KTG query service behind `ktg serve` (transport-agnostic
// half; src/server/tcp.h adds the socket front end).
//
// A KtgServer owns one dataset behind a SnapshotStore (core/snapshot.h):
// every query run pins the current epoch's immutable (graph, inverted
// index, shared read-safe checker, cache-epoch) snapshot for its whole
// execution, and the `mutate` op is the single-writer path that publishes
// the next epoch. Requests execute on a fixed set of worker threads fed by
// one bounded FIFO queue. Three serving policies sit between the queue and
// the engine:
//
//   * Admission control — when the queue is at max_queue, new queries are
//     rejected immediately with a retry_after_ms hint derived from an EMA
//     of recent request latency and the current backlog, instead of
//     building an unbounded backlog whose tail would time out anyway.
//   * Batching — a worker popping request R also claims, from a bounded
//     scan window behind it: (a) every queued request with an identical
//     canonical QueryKey, answered by R's single engine run ("coalesced"),
//     and (b) up to batch_max-1 requests sharing >= 1 keyword id with R,
//     run consecutively on the same worker so the cache's ball tier and
//     result tier stay hot for them ("affinity").
//   * Deadlines — a request's remaining deadline (total minus queue wait)
//     maps onto EngineOptions::time_budget_ms; requests whose deadline
//     expired while queued still ride the (possibly shared) run and are
//     answered with its best-so-far groups, serving.complete=false and a
//     sound serving.gap. When *every* member of a batch expired, the run
//     executes under a small floor budget in anytime mode so there is a
//     best-so-far to report.
//
// Engine runs use num_threads = 1: parallelism is across requests, not
// within one, which keeps every complete response bit-identical to a
// serial RunKtg() against the response's pinned epoch — the loadgen
// differential check replays exactly that (incomplete responses are
// exempt; their groups depend on where truncation landed).
//
// Snapshots are pinned at *execution* time, not submission: a batch of
// coalesced requests shares one run at one epoch, and the response's
// serving.epoch names it. Queries parsed before a mutation may therefore
// be answered against a later epoch — the protocol promises per-response
// epoch consistency, not submission-order serializability.

#ifndef KTG_SERVER_SERVER_H_
#define KTG_SERVER_SERVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <condition_variable>

#include "cache/ktg_cache.h"
#include "cache/query_key.h"
#include "core/options.h"
#include "core/query.h"
#include "core/snapshot.h"
#include "index/checker_factory.h"
#include "index/distance_checker.h"
#include "keywords/attributed_graph.h"
#include "obs/metrics.h"
#include "server/protocol.h"
#include "util/status.h"
#include "util/timer.h"

namespace ktg::server {

/// Serving configuration; engine knobs ride along in `engine` (its sort is
/// overridden per request, num_threads is forced to 1, and metrics/cache
/// sinks are installed by the server).
struct ServerOptions {
  /// Query worker threads (0 = hardware concurrency).
  uint32_t workers = 1;

  /// Admission bound: queued (not yet executing) requests beyond this are
  /// rejected with retry_after_ms.
  size_t max_queue = 256;

  /// Upper bound on one worker's claim per queue pop: the leader plus at
  /// most batch_max-1 keyword-affine followers (identical-key coalescing
  /// is not counted against this — duplicates are free).
  uint32_t batch_max = 8;

  /// How many queued requests behind the leader a worker inspects when
  /// forming a batch. Bounds the O(window) scan under the queue lock.
  size_t batch_window = 64;

  /// Applied to requests that carry no deadline of their own (0 = none).
  double default_deadline_ms = 0.0;

  /// Cross-query cache budget in MiB (0 = caching disabled).
  size_t cache_mb = 0;

  /// Distance checker built per worker. kKHopBitmap is specialized to one
  /// k (bitmap_k); queries with a different tenuity are answered "error".
  CheckerKind checker = CheckerKind::kNlrnl;
  HopDistance bitmap_k = 2;

  /// Threads for index/checker construction at Start() (0 = hardware).
  uint32_t build_threads = 0;

  EngineOptions engine;
};

/// The resident query service. Construction takes ownership of the graph;
/// Start() builds the indexes and spawns the workers; Stop() drains every
/// queued request and joins. Thread-safe: HandleLine/SubmitQuery may be
/// called from any number of transport threads.
class KtgServer {
 public:
  /// Receives exactly one serialized response line (no trailing newline)
  /// per request. Invoked either inline on the submitting thread (rejects,
  /// inline ops, parse errors) or on a worker thread; must be safe for
  /// both and must not block for long — workers are a shared resource.
  using ResponseCallback = std::function<void(std::string)>;

  KtgServer(AttributedGraph graph, ServerOptions options);
  ~KtgServer();

  KtgServer(const KtgServer&) = delete;
  KtgServer& operator=(const KtgServer&) = delete;

  /// Builds the cache and the epoch-0 snapshot (index + shared checker),
  /// then spawns the worker threads. Must be called exactly once before
  /// any submit.
  Status Start();

  /// Drains the queue (every queued request is still answered), then joins
  /// the workers. Idempotent. Submissions after Stop() are answered
  /// "error".
  void Stop();

  /// Parses one protocol line and dispatches it: ping/metrics/info are
  /// answered inline; mutate runs the writer path inline on the submitting
  /// thread (the snapshot store serializes writers); query goes through
  /// admission onto the queue.
  void HandleLine(const std::string& line, ResponseCallback cb);

  /// Typed submission path for in-process callers (benches, tests); same
  /// admission/batching/deadline treatment as the wire path.
  /// `deadline_ms` <= 0 means "server default". The 5-argument form runs
  /// in the server's configured engine mode; the 6-argument form picks a
  /// per-request mode (requests only coalesce with same-mode duplicates).
  void SubmitQuery(uint64_t id, KtgQuery query, SortStrategy sort,
                   double deadline_ms, ResponseCallback cb) {
    SubmitQuery(id, std::move(query), sort, deadline_ms, options_.engine.mode,
                std::move(cb));
  }
  void SubmitQuery(uint64_t id, KtgQuery query, SortStrategy sort,
                   double deadline_ms, EngineMode mode, ResponseCallback cb);

  /// Typed writer path: applies `batch`, publishes the next epoch (in-
  /// process equivalent of the wire `mutate` op). Must not be called
  /// before Start().
  Result<SnapshotStore::ApplyInfo> Apply(const MutationBatch& batch);

  /// Pins the current snapshot (readers' entry point; tests and benches
  /// use it to run reference queries against a known epoch).
  SnapshotPin Pin() const { return store_->Pin(); }

  const ServerOptions& options() const { return options_; }
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Dataset + configuration snapshot served by the "info" op.
  std::string InfoJson() const;

  /// Queued-but-not-yet-claimed requests right now.
  size_t queue_depth() const;

 private:
  struct Pending {
    uint64_t id = 0;
    KtgQuery query;
    SortStrategy sort = SortStrategy::kVkcDeg;
    EngineMode mode = EngineMode::kExact;  // effective per-request mode
    double deadline_ms = 0.0;  // effective total deadline; 0 = none
    Stopwatch waited;          // started at admission
    QueryKey key;              // canonical identity for coalescing
    ResponseCallback cb;
  };

  void WorkerLoop();
  // Claims a batch under the lock: the queue-front leader + identical-key
  // `coalesced` + keyword-affine `affinity`. Returns false when stopping
  // and empty.
  bool ClaimBatch(Pending* leader, std::vector<Pending>* coalesced,
                  std::vector<Pending>* affinity);
  // One engine run answering `leader` and every coalesced duplicate. Pins
  // the current snapshot for the whole run.
  void ExecuteOne(Pending leader, std::vector<Pending> coalesced);
  // retry_after hint for a queue currently `depth` deep.
  double RetryAfterMs(size_t depth) const;
  void RecordLatency(double request_ms);

  const ServerOptions options_;
  // The dataset handed to the constructor; consumed by Start() when it
  // builds the epoch-0 snapshot.
  AttributedGraph boot_graph_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<KtgCache> cache_;
  std::unique_ptr<SnapshotStore> store_;
  uint32_t workers_ = 1;

  mutable std::mutex mu_;
  std::condition_variable work_ready_;
  std::deque<Pending> queue_;
  bool started_ = false;
  bool stopping_ = false;
  // EMA of end-to-end request latency (ms), the retry_after basis.
  double ema_request_ms_ = 0.0;
  bool ema_seeded_ = false;

  // One resident WorkerLoop per thread. Plain threads, not a ThreadPool: a
  // size-1 pool runs Submit inline by contract and could never host a
  // loop. Declared last so every member a loop touches outlives it.
  std::vector<std::thread> threads_;
};

}  // namespace ktg::server

#endif  // KTG_SERVER_SERVER_H_
