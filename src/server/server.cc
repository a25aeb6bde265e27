// Copyright (c) 2026 The ktg Authors.

#include "server/server.h"

#include <algorithm>
#include <utility>

#include "cache/caching_checker.h"
#include "core/ktg_engine.h"
#include "index/bfs_checker.h"
#include "util/executor.h"
#include "util/json_writer.h"
#include "util/macros.h"

namespace ktg::server {
namespace {

// retry_after floor/fallback: a just-started server has no latency EMA yet.
constexpr double kMinRetryAfterMs = 1.0;
constexpr double kDefaultRequestMs = 5.0;

// Execution budget when every request in a batch expired while queued: the
// run still happens, in anytime mode, so the responses carry best-so-far
// groups plus a sound gap instead of nothing (docs/heuristics.md).
constexpr double kExpiredBudgetFloorMs = 1.0;

// Sorted-vector intersection test (QueryKey keeps keywords sorted).
bool SharesKeyword(const QueryKey& a, const QueryKey& b) {
  auto i = a.keywords.begin();
  auto j = b.keywords.begin();
  while (i != a.keywords.end() && j != b.keywords.end()) {
    if (*i == *j) return true;
    if (*i < *j) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

}  // namespace

KtgServer::KtgServer(AttributedGraph graph, ServerOptions options)
    : options_(std::move(options)), boot_graph_(std::move(graph)) {}

KtgServer::~KtgServer() { Stop(); }

Status KtgServer::Start() {
  KTG_CHECK_MSG(!started_, "KtgServer::Start called twice");
  workers_ = ResolveThreads(options_.workers);
  if (options_.cache_mb > 0) {
    cache_ = std::make_unique<KtgCache>(CacheOptionsForMb(options_.cache_mb));
  }
  // The epoch-0 snapshot: inverted index plus one shared read-safe checker
  // every worker pins (per-run stateful wrappers are built in ExecuteOne).
  SnapshotStore::Options sopts;
  sopts.checker = options_.checker;
  sopts.build_threads = options_.build_threads;
  sopts.cache = cache_.get();
  sopts.metrics = &metrics_;
  store_ = std::make_unique<SnapshotStore>(std::move(boot_graph_), sopts);
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
  }
  threads_.reserve(workers_);
  for (uint32_t w = 0; w < workers_; ++w) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void KtgServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) return;
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : threads_) t.join();  // each loop drains, then returns
  threads_.clear();
}

size_t KtgServer::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void KtgServer::HandleLine(const std::string& line, ResponseCallback cb) {
  auto req = ParseRequestLine(line);
  if (!req.ok()) {
    metrics_.counter("server.errors").Add();
    cb(ErrorResponseJson(0, req.status().message()));
    return;
  }
  switch (req->op) {
    case RequestOp::kPing:
      cb(PongResponseJson(req->id));
      return;
    case RequestOp::kMetrics:
      cb(MetricsResponseJson(req->id, metrics_.ToJson()));
      return;
    case RequestOp::kInfo:
      cb(InfoResponseJson(req->id, InfoJson()));
      return;
    case RequestOp::kMutate: {
      // Writer path, run inline on the transport thread: the snapshot
      // store serializes concurrent writers, readers never block on it.
      auto applied = Apply(req->mutation);
      if (!applied.ok()) {
        metrics_.counter("server.errors").Add();
        cb(ErrorResponseJson(req->id, applied.status().message()));
      } else {
        cb(MutateResponseJson(req->id, applied.value()));
      }
      return;
    }
    case RequestOp::kQuery:
      break;
  }
  // Terms are resolved against the current epoch's vocabulary; the
  // vocabulary is append-only, so the resulting keyword ids stay valid at
  // whichever (possibly later) epoch the run pins.
  const SnapshotPin snap = store_->Pin();
  KtgQuery query = MakeQuery(snap->graph(), req->keywords, req->group_size,
                             req->tenuity, req->top_n);
  query.query_vertices = std::move(req->authors);
  SubmitQuery(req->id, std::move(query), req->sort, req->deadline_ms,
              req->has_mode ? req->mode : options_.engine.mode,
              std::move(cb));
}

Result<SnapshotStore::ApplyInfo> KtgServer::Apply(const MutationBatch& batch) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) {
      return Status::FailedPrecondition("server is not accepting requests");
    }
  }
  auto info = store_->Apply(batch);
  if (info.ok()) {
    metrics_.counter("server.mutations").Add();
    metrics_.counter("server.mutation_deltas")
        .Add(info->edges_added + info->edges_removed + info->keywords_added);
  }
  return info;
}

void KtgServer::SubmitQuery(uint64_t id, KtgQuery query, SortStrategy sort,
                            double deadline_ms, EngineMode mode,
                            ResponseCallback cb) {
  if (Status st = ValidateQuery(query, store_->Pin()->graph()); !st.ok()) {
    metrics_.counter("server.errors").Add();
    cb(ErrorResponseJson(id, st.message()));
    return;
  }

  Pending p;
  p.id = id;
  p.sort = sort;
  p.mode = mode;
  p.deadline_ms = deadline_ms > 0 ? deadline_ms : options_.default_deadline_ms;
  p.key = CanonicalQueryKey(query, sort, options_.engine.degree_ascending);
  p.query = std::move(query);
  p.cb = std::move(cb);

  // Decide under the lock, respond outside it: callbacks may be slow
  // (socket writes) and must never run under mu_.
  std::string inline_response;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) {
      inline_response =
          ErrorResponseJson(id, "server is not accepting requests");
      metrics_.counter("server.errors").Add();
    } else if (queue_.size() >= options_.max_queue) {
      inline_response =
          RejectResponseJson(id, RetryAfterMs(queue_.size()), queue_.size());
      metrics_.counter("server.rejected").Add();
    } else {
      queue_.push_back(std::move(p));
      metrics_.counter("server.accepted").Add();
      metrics_.gauge("server.queue_depth").Set(
          static_cast<double>(queue_.size()));
    }
  }
  if (!inline_response.empty()) {
    p.cb(std::move(inline_response));
    return;
  }
  work_ready_.notify_one();
}

double KtgServer::RetryAfterMs(size_t depth) const {
  // Called with mu_ held. Expected time until a slot frees up: the EMA of
  // one request's latency times the number of "rounds" the backlog needs.
  const double per_request = ema_seeded_ ? ema_request_ms_ : kDefaultRequestMs;
  const double rounds = static_cast<double>(depth / workers_ + 1);
  return std::max(kMinRetryAfterMs, per_request * rounds);
}

void KtgServer::RecordLatency(double request_ms) {
  metrics_.histogram("server.request_ms").Record(request_ms);
  std::lock_guard<std::mutex> lock(mu_);
  if (!ema_seeded_) {
    ema_request_ms_ = request_ms;
    ema_seeded_ = true;
  } else {
    ema_request_ms_ = 0.9 * ema_request_ms_ + 0.1 * request_ms;
  }
}

bool KtgServer::ClaimBatch(Pending* leader, std::vector<Pending>* coalesced,
                           std::vector<Pending>* affinity) {
  std::unique_lock<std::mutex> lock(mu_);
  work_ready_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
  if (queue_.empty()) return false;  // stopping_ and fully drained
  *leader = std::move(queue_.front());
  queue_.pop_front();

  size_t scanned = 0;
  for (auto it = queue_.begin();
       it != queue_.end() && scanned < options_.batch_window; ++scanned) {
    if (it->key == leader->key && it->mode == leader->mode) {
      // Same canonical query AND same execution mode: an exact duplicate
      // must not be answered by an anytime run, or vice versa.
      coalesced->push_back(std::move(*it));
      it = queue_.erase(it);
    } else if (affinity->size() + 1 < options_.batch_max &&
               SharesKeyword(leader->key, it->key)) {
      affinity->push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  if (!coalesced->empty()) {
    metrics_.counter("server.batch.coalesced").Add(coalesced->size());
  }
  if (!affinity->empty()) {
    metrics_.counter("server.batch.affinity").Add(affinity->size());
  }
  metrics_.gauge("server.queue_depth").Set(static_cast<double>(queue_.size()));
  return true;
}

void KtgServer::WorkerLoop() {
  for (;;) {
    Pending leader;
    std::vector<Pending> coalesced;
    std::vector<Pending> affinity;
    if (!ClaimBatch(&leader, &coalesced, &affinity)) return;
    ExecuteOne(std::move(leader), std::move(coalesced));
    // Affinity followers run back-to-back on this worker so the cache
    // entries the leader warmed (balls around shared-keyword candidates,
    // possibly the result tier) are reused while hot.
    for (Pending& p : affinity) {
      ExecuteOne(std::move(p), {});
    }
  }
}

void KtgServer::ExecuteOne(Pending leader, std::vector<Pending> coalesced) {
  struct Live {
    Pending* p;
    double queue_ms;
    bool expired;  // deadline passed while queued; served best-so-far
  };
  std::vector<Live> live;
  live.reserve(1 + coalesced.size());
  bool unlimited = false;
  double budget = 0.0;
  size_t expired_count = 0;
  const auto admit = [&](Pending& p) {
    const double waited = p.waited.ElapsedMillis();
    metrics_.histogram("server.queue_wait_ms").Record(waited);
    // A request whose deadline passed in the queue is not dropped: it joins
    // the run flagged expired and is answered with whatever the (possibly
    // shared) run found, marked serving.complete=false with a sound gap.
    // Non-expired members fund the execution budget as before.
    const bool expired = p.deadline_ms > 0 && waited >= p.deadline_ms;
    if (expired) {
      metrics_.counter("server.deadline_missed").Add();
      ++expired_count;
    } else if (p.deadline_ms <= 0) {
      unlimited = true;
    } else {
      budget = std::max(budget, p.deadline_ms - waited);
    }
    live.push_back({&p, waited, expired});
  };
  admit(leader);
  for (Pending& p : coalesced) admit(p);
  if (live.empty()) return;
  // Every member expired: run anyway under a floor budget, forced into
  // anytime mode so truncation returns the best-so-far groups it reached.
  const bool all_expired = !unlimited && budget <= 0.0;
  if (all_expired) budget = kExpiredBudgetFloorMs;

  // Pin once for the whole run: graph, index, checker and every cache
  // access come from this epoch, and all coalesced responses carry it. The
  // pin keeps the snapshot alive even if a writer publishes mid-run.
  const SnapshotPin snap = store_->Pin();

  EngineOptions eopts = options_.engine;
  eopts.sort = leader.sort;
  eopts.mode = leader.mode;
  // One worker = one serial engine: responses stay bit-identical to a
  // serial RunKtg, and a cache-wrapped checker is not concurrent-read-safe
  // anyway.
  eopts.num_threads = 1;
  eopts.metrics = &metrics_;
  eopts.trace = nullptr;
  eopts.cache = cache_.get();
  eopts.snapshot_epoch = snap->epoch();
  // Coalesced requests share one run, so the run gets the most permissive
  // deadline among them (docs/server.md: a duplicate can only improve, not
  // tighten, another request's budget).
  eopts.time_budget_ms = unlimited ? 0.0 : budget;
  // An exact run needs the anytime upgrade to have something to report.
  if (all_expired) eopts.mode = EngineMode::kAnytime;

  // The snapshot's checker is shared and read-safe; the per-run state —
  // BFS scratch for kBfs, the stateful cache wrapper — is built here,
  // against the pinned graph and tagged with the pinned epoch.
  std::unique_ptr<BfsChecker> bfs_checker;
  DistanceChecker* base = snap->checker();
  if (base == nullptr) {
    bfs_checker = std::make_unique<BfsChecker>(snap->graph().graph());
    base = bfs_checker.get();
  }
  std::unique_ptr<CachingChecker> wrapped;
  DistanceChecker* checker = base;
  if (cache_ != nullptr) {
    wrapped = std::make_unique<CachingChecker>(base, snap->graph().graph(),
                                               cache_.get(), snap->epoch());
    checker = wrapped.get();
  }

  Stopwatch exec;
  Result<KtgResult> result =
      RunKtg(snap->graph(), snap->index(), *checker, leader.query, eopts);
  const double exec_ms = exec.ElapsedMillis();
  const bool complete = result.ok() && result->stats.complete;

  if (!result.ok()) {
    metrics_.counter("server.errors").Add(live.size());
    for (const Live& l : live) {
      l.p->cb(ErrorResponseJson(l.p->id, result.status().message()));
    }
    return;
  }
  if (!complete) {
    metrics_.counter("server.incomplete").Add();
    // The per-request misses of an all-expired batch were already counted
    // at admission; only a live deadline truncating the run counts here.
    if (eopts.time_budget_ms > 0 && !all_expired) {
      metrics_.counter("server.deadline_missed").Add();
    }
  }
  if (expired_count > 0) {
    metrics_.counter("server.expired_served").Add(expired_count);
  }
  metrics_.counter("server.completed").Add(live.size());
  metrics_.histogram("server.exec_ms").Record(exec_ms);
  for (const Live& l : live) {
    ServingInfo serving;
    serving.queue_ms = l.queue_ms;
    serving.exec_ms = exec_ms;
    serving.complete = complete && !l.expired;
    serving.coalesced = l.p != &leader;
    serving.gap = result->stats.gap;
    serving.epoch = snap->epoch();
    l.p->cb(QueryResponseJson(l.p->id, snap->graph(), l.p->query, *result,
                              serving));
    RecordLatency(l.queue_ms + exec_ms);
  }
}

std::string KtgServer::InfoJson() const {
  const SnapshotPin snap = store_->Pin();
  JsonWriter w;
  w.BeginObject();
  w.Key("dataset").BeginObject();
  w.KV("vertices", static_cast<uint64_t>(snap->graph().num_vertices()))
      .KV("edges", snap->graph().num_edges())
      .KV("vocabulary",
          static_cast<uint64_t>(snap->graph().vocabulary().size()))
      .KV("epoch", snap->epoch());
  w.EndObject();
  w.Key("serving").BeginObject();
  w.KV("workers", workers_)
      .KV("max_queue", static_cast<uint64_t>(options_.max_queue))
      .KV("batch_max", options_.batch_max)
      .KV("batch_window", static_cast<uint64_t>(options_.batch_window))
      .KV("checker", CheckerKindName(options_.checker))
      .KV("cache_mb", static_cast<uint64_t>(options_.cache_mb))
      .KV("default_deadline_ms", options_.default_deadline_ms);
  w.EndObject().EndObject();
  return w.str();
}

}  // namespace ktg::server
