// serve_read and serve_mixed: ktgd in-process on a loopback port, driven
// closed-loop by the benchmark's own clients (one thread and one TcpClient
// per connection, each waiting for its reply before sending the next
// request). Reads and writes are tallied apart; the slot sequence comes
// from the seeded stream, so every run with one seed sends the same
// requests in the same slot order. Round trips and the throughput
// denominator are process CPU time converted to reference time
// (calibrate.h): every kChunkNs of the window the connections meet at a
// barrier and the last to arrive calibrates. Spans stay on the wall clock.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <thread>
#include <unordered_map>

#include "core/ktg_engine.h"
#include "index/bfs_checker.h"
#include "keywords/inverted_index.h"
#include "layers.h"
#include "run.h"
#include "server/protocol.h"
#include "util/json_parse.h"
#include "validate.h"

namespace perfbench {
namespace {

// Wall time between calibrations in the window.
constexpr int64_t kChunkNs = 100'000'000;

// A mutate the server acknowledged: which generated batch, and the
// ApplyInfo its response carried.
struct MutateRecord {
  uint32_t batch = 0;
  ktg::SnapshotStore::ApplyInfo info;
};

using Interval = std::pair<int64_t, int64_t>;

// What one connection saw.
struct ConnTally {
  FailureTally tally;
  size_t chunk = 0;  // calibration chunk of the work done now
  ChunkedTimes read_ms;
  ChunkedTimes write_ms;
  std::vector<MutateRecord> mutates;
  std::unordered_map<uint64_t, size_t> seen;  // answer digest -> index
  std::vector<AnswerRecord> answers;
  std::vector<uint64_t> answer_counts;
  // Traced runs only.
  SpanLog log;
  std::vector<double> queue_ms;
  std::vector<double> exec_ms;
  uint64_t coalesced = 0;
  std::vector<Interval> read_iv;
  std::vector<Interval> write_iv;
};

struct Window {
  ClockReading start;
  ClockReading end;
  /// Calibrations of the window (a mark at each end and one per chunk),
  /// continued by the write probe's marks.
  SpeedTrack track;
  size_t window_chunks = 0;
  uint64_t slots = 0;
  uint64_t reads_ok = 0;
  size_t mutations_used = 0;
  std::vector<ConnTally> conns;
};

// Parses an ok query response into `a`; false when a member is missing or
// mistyped.
bool ParseAnswer(const ktg::JsonValue& doc, AnswerRecord* a, double* queue_ms,
                 double* exec_ms, bool* complete, bool* coalesced) {
  const ktg::JsonValue* serving = doc.Find("serving");
  const ktg::JsonValue* groups = doc.Find("groups");
  if (serving == nullptr || !serving->is_object() || groups == nullptr ||
      !groups->is_array()) {
    return false;
  }
  const auto epoch = serving->GetInt("epoch", -1);
  const auto q = serving->GetNumber("queue_ms", -1);
  const auto e = serving->GetNumber("exec_ms", -1);
  const auto c = serving->GetBool("complete", false);
  const auto co = serving->GetBool("coalesced", false);
  if (!epoch.ok() || epoch.value() < 0 || !q.ok() || !e.ok() || !c.ok() ||
      !co.ok()) {
    return false;
  }
  a->epoch = static_cast<uint64_t>(epoch.value());
  *queue_ms = q.value();
  *exec_ms = e.value();
  *complete = c.value();
  *coalesced = co.value();
  for (const ktg::JsonValue& g : groups->AsArray()) {
    if (!g.is_object()) return false;
    const auto covered = g.GetInt("covered", -1);
    const ktg::JsonValue* members = g.Find("members");
    if (!covered.ok() || covered.value() < 0 || members == nullptr ||
        !members->is_array()) {
      return false;
    }
    GroupRecord rec;
    rec.covered = static_cast<int>(covered.value());
    for (const ktg::JsonValue& m : members->AsArray()) {
      if (!m.is_number() || m.AsDouble() < 0) return false;
      rec.members.push_back(static_cast<ktg::VertexId>(m.AsDouble()));
    }
    a->groups.push_back(std::move(rec));
  }
  return true;
}

bool ParseMutate(const ktg::JsonValue& doc, ktg::SnapshotStore::ApplyInfo* m) {
  const ktg::JsonValue* mut = doc.Find("mutate");
  if (mut == nullptr || !mut->is_object()) return false;
  const auto epoch = mut->GetInt("epoch", -1);
  const auto publish = mut->GetNumber("publish_ms", -1);
  const auto rebuilds = mut->GetInt("checker_rebuilds", -1);
  const auto affected = mut->GetInt("affected_vertices", -1);
  const auto retired = mut->GetInt("retired_live", -1);
  if (!epoch.ok() || epoch.value() < 1 || !publish.ok() || !rebuilds.ok() ||
      rebuilds.value() < 0 || !affected.ok() || affected.value() < 0 ||
      !retired.ok() || retired.value() < 0) {
    return false;
  }
  m->epoch = static_cast<uint64_t>(epoch.value());
  m->publish_ms = publish.value();
  m->checker_rebuilds = static_cast<uint64_t>(rebuilds.value());
  m->affected_vertices = static_cast<uint64_t>(affected.value());
  m->retired_live = static_cast<uint64_t>(retired.value());
  return true;
}

std::string StatusOf(const ktg::Result<ktg::JsonValue>& doc) {
  if (!doc.ok()) return "error";
  const auto s = doc->GetString("status", "error");
  return s.ok() ? s.value() : "error";
}

// Sends one mutate batch and waits for the reply. False when the
// connection broke (the caller stops using it).
bool SendMutate(ktg::server::TcpClient& client, uint64_t id, uint32_t batch,
                const ktg::MutationBatch& mb, bool trace, ConnTally& t) {
  const std::string line = ktg::server::MutateRequestJson(id, mb);
  t.tally.attempted++;
  const int64_t t0 = NowNs();
  const int64_t c0 = CpuNs();
  if (!client.SendLine(line).ok()) {
    t.tally.errors++;
    return false;
  }
  auto reply = client.ReadLine();
  const int64_t c1 = CpuNs();
  const int64_t t1 = NowNs();
  if (!reply.ok()) {
    t.tally.errors++;
    return false;
  }
  auto doc = ktg::ParseJson(*reply);
  MutateRecord rec;
  rec.batch = batch;
  if (StatusOf(doc) != "ok" || !ParseMutate(*doc, &rec.info)) {
    t.tally.errors++;
    return true;
  }
  t.write_ms.Add(static_cast<double>(c1 - c0) / 1e6, t.chunk);
  t.mutates.push_back(rec);
  if (trace) {
    const int32_t root = t.log.Add("client.mutate", t0, t1, id);
    const auto pub = static_cast<int64_t>(rec.info.publish_ms * 1e6);
    const int64_t start = t0 + std::max<int64_t>(0, (t1 - t0 - pub) / 2);
    t.log.Add("core.snapshot.publish", start, start + pub, id, root);
    t.write_iv.emplace_back(t0, t1);
  }
  return true;
}

// Ends a chunk once every connection of a timed window has arrived: one
// calibration, then the next chunk's deadline.
struct MarkChunk {
  SpeedTrack* track;
  std::atomic<int64_t>* chunk_end;
  void operator()() noexcept {
    track->Mark();
    chunk_end->store(NowNs() + kChunkNs, std::memory_order_relaxed);
  }
};
using ChunkBarrier = std::barrier<MarkChunk>;

// Where the connections of a timed window meet to calibrate.
struct ChunkSync {
  ChunkBarrier* barrier = nullptr;
  const std::atomic<int64_t>* chunk_end = nullptr;
};

// Sends slots of `stream` until `end_ns` or until `limit` slots are taken.
void ConnectionLoop(const Inputs& in, const std::vector<uint32_t>& stream,
                    uint64_t limit, const std::vector<std::string>& lines,
                    uint16_t port, int64_t end_ns, bool trace,
                    std::atomic<uint64_t>& next,
                    std::atomic<size_t>& next_mutation, ChunkSync sync,
                    ConnTally& t) {
  ktg::server::TcpClient client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    t.tally.attempted++;
    t.tally.errors++;
    return;
  }
  while (NowNs() < end_ns) {
    if (sync.barrier != nullptr &&
        NowNs() >= sync.chunk_end->load(std::memory_order_relaxed)) {
      sync.barrier->arrive_and_wait();
      ++t.chunk;
      continue;
    }
    const uint64_t slot = next.fetch_add(1, std::memory_order_relaxed);
    if (slot >= limit) return;
    const uint32_t q = stream[slot % stream.size()];
    if (q == kWriteSlot) {
      const size_t mi = next_mutation.fetch_add(1, std::memory_order_relaxed);
      if (mi >= in.mutations.size()) {
        // The generated write stream ran dry: a visible failure, never a
        // silent change of the traffic mix.
        t.tally.attempted++;
        t.tally.errors++;
        return;
      }
      if (!SendMutate(client, slot, static_cast<uint32_t>(mi),
                      in.mutations[mi], trace, t)) {
        return;
      }
      continue;
    }
    t.tally.attempted++;
    const int64_t t0 = NowNs();
    const int64_t c0 = CpuNs();
    if (!client.SendLine(lines[q]).ok()) {
      t.tally.errors++;
      return;
    }
    auto reply = client.ReadLine();
    const int64_t c1 = CpuNs();
    const int64_t t1 = NowNs();
    if (!reply.ok()) {
      t.tally.errors++;
      return;
    }
    const int32_t parse_span = trace ? t.log.Begin("client.parse", slot) : -1;
    auto doc = ktg::ParseJson(*reply);
    const std::string status = StatusOf(doc);
    if (status == "rejected") {
      t.tally.rejected++;
      continue;
    }
    if (status == "timeout") {
      t.tally.timeouts++;
      continue;
    }
    AnswerRecord a;
    a.query = q;
    double queue_ms = 0;
    double exec_ms = 0;
    bool complete = false;
    bool coalesced = false;
    if (status != "ok" ||
        !ParseAnswer(*doc, &a, &queue_ms, &exec_ms, &complete, &coalesced)) {
      t.tally.errors++;
      continue;
    }
    if (trace) t.log.End(parse_span);
    if (!complete) t.tally.timeouts++;
    t.read_ms.Add(static_cast<double>(c1 - c0) / 1e6, t.chunk);
    const uint64_t digest = AnswerDigest(a);
    const auto [it, inserted] = t.seen.emplace(digest, t.answers.size());
    if (inserted) {
      t.answers.push_back(std::move(a));
      t.answer_counts.push_back(1);
    } else {
      t.answer_counts[it->second]++;
    }
    if (trace) {
      const int32_t root = t.log.Add("client.request", t0, t1, slot);
      const auto qn = static_cast<int64_t>(queue_ms * 1e6);
      const auto en = static_cast<int64_t>(exec_ms * 1e6);
      // The server reports durations, not instants; transport is what the
      // round trip leaves, split evenly before and after.
      const int64_t start = t0 + std::max<int64_t>(0, (t1 - t0 - qn - en) / 2);
      t.log.Add("server.queue", start, start + qn, slot, root);
      t.log.Add("server.exec", start + qn, start + qn + en, slot, root);
      t.queue_ms.push_back(queue_ms);
      t.exec_ms.push_back(exec_ms);
      if (coalesced) t.coalesced++;
      t.read_iv.emplace_back(t0, t1);
    }
  }
}

// Runs `stream` closed-loop from every connection: for `seconds`, with
// calibrations, when `limit` is 0, otherwise (the warm-up) until `limit`
// slots have been sent.
void DriveClosedLoop(const WorkloadSpec& spec, const Inputs& in,
                     const std::vector<uint32_t>& stream, uint64_t limit,
                     const std::vector<std::string>& lines, uint16_t port,
                     double seconds, bool trace, Window& w) {
  const bool timed = limit == 0;
  w.conns.resize(spec.connections);
  std::atomic<uint64_t> next{0};
  std::atomic<size_t> next_mutation{0};
  if (timed) w.track.Mark();
  w.start = ClockReading::Now();
  const int64_t end_ns =
      timed ? w.start.wall_ns + static_cast<int64_t>(seconds * 1e9)
            : INT64_MAX;
  std::atomic<int64_t> chunk_end{w.start.wall_ns + kChunkNs};
  ChunkBarrier barrier(static_cast<std::ptrdiff_t>(spec.connections),
                       MarkChunk{&w.track, &chunk_end});
  const ChunkSync sync{timed ? &barrier : nullptr, &chunk_end};
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < spec.connections; ++c) {
    if (trace) w.conns[c].log.Reserve(1 << 20);
    threads.emplace_back([&, c] {
      ConnectionLoop(in, stream, timed ? UINT64_MAX : limit, lines, port,
                     end_ns, trace, next, next_mutation, sync, w.conns[c]);
      // A connection that is done stops counting towards later meetings.
      if (timed) barrier.arrive_and_drop();
    });
  }
  for (std::thread& t : threads) t.join();
  w.end = ClockReading::Now();
  if (timed) {
    w.track.Mark();
    w.window_chunks = w.track.marks() - 1;
  }
  w.slots = next.load();
  w.mutations_used = std::min(next_mutation.load(), in.mutations.size());
  for (const ConnTally& c : w.conns) w.reads_ok += c.read_ms.size();
}

// Mutate batches timed one at a time after the window (workloads that send
// no writes of their own), on one fresh connection, with a calibration
// before each (continuing `track`, whose last mark closed the window).
void WriteProbe(const WorkloadSpec& spec, const Inputs& in, uint16_t port,
                size_t first_batch, bool trace, SpeedTrack& track,
                ConnTally& t) {
  ktg::server::TcpClient client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    t.tally.attempted++;
    t.tally.errors++;
    return;
  }
  for (uint32_t i = 0; i < spec.write_probes; ++i) {
    const size_t mi = first_batch + i;
    if (mi >= in.mutations.size()) {
      t.tally.attempted++;
      t.tally.errors++;
      return;
    }
    if (i > 0) track.Mark();
    t.chunk = track.chunk();
    if (!SendMutate(client, (uint64_t{1} << 40) + i,
                    static_cast<uint32_t>(mi), in.mutations[mi], trace, t)) {
      return;
    }
  }
  track.Mark();
}

// The reference for one epoch: a serial engine run with the index-free
// BFS checker over the benchmark's own copy of the graph.
struct Reference {
  ktg::AttributedGraph graph;
  std::unique_ptr<ktg::InvertedIndex> index;
  std::unique_ptr<ktg::BfsChecker> checker;
};

std::unique_ptr<Reference> MakeReference(const EpochGraph& epoch) {
  auto ref = std::make_unique<Reference>();
  ref->graph = epoch.Materialize();
  ref->index = std::make_unique<ktg::InvertedIndex>(ref->graph);
  ref->checker = std::make_unique<ktg::BfsChecker>(ref->graph.graph());
  return ref;
}

// Checks every distinct answer on the benchmark's own copy of the graph at
// the epoch the answer names, then compares its coverage profile with a
// direct serial run there. Mutate batches are applied in the order the
// server published them. Returns the number of responses refused; `first`
// receives the first reason.
uint64_t ValidateAnswers(const Inputs& in,
                         const std::vector<const ConnTally*>& conns,
                         std::string* first) {
  uint64_t invalid = 0;
  auto refuse = [&](uint64_t count, const std::string& why) {
    invalid += count;
    if (first->empty()) *first = why;
  };
  std::vector<MutateRecord> mutates;
  for (const ConnTally* c : conns) {
    mutates.insert(mutates.end(), c->mutates.begin(), c->mutates.end());
  }
  std::sort(mutates.begin(), mutates.end(),
            [](const MutateRecord& a, const MutateRecord& b) {
              return a.info.epoch < b.info.epoch;
            });
  std::vector<uint32_t> batch_of_epoch{0};  // index 0: the initial epoch
  for (size_t i = 0; i < mutates.size(); ++i) {
    if (mutates[i].info.epoch != i + 1) {
      refuse(mutates.size() - i, "published epochs are not contiguous");
      break;
    }
    batch_of_epoch.push_back(mutates[i].batch);
  }

  struct Ref {
    const AnswerRecord* answer;
    uint64_t count;
  };
  std::vector<Ref> refs;
  std::unordered_map<uint64_t, size_t> merged;
  for (const ConnTally* c : conns) {
    for (size_t i = 0; i < c->answers.size(); ++i) {
      const uint64_t d = AnswerDigest(c->answers[i]);
      const auto [it, inserted] = merged.emplace(d, refs.size());
      if (inserted) {
        refs.push_back({&c->answers[i], c->answer_counts[i]});
      } else {
        refs[it->second].count += c->answer_counts[i];
      }
    }
  }
  std::stable_sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    return a.answer->epoch < b.answer->epoch;
  });

  EpochGraph graph(in.graph);
  uint64_t epoch = 0;
  std::unique_ptr<Reference> ref;
  for (const Ref& r : refs) {
    const AnswerRecord& a = *r.answer;
    if (a.epoch >= batch_of_epoch.size()) {
      refuse(r.count, "answer names an epoch that was never published");
      continue;
    }
    while (epoch < a.epoch) {
      graph.Apply(in.mutations[batch_of_epoch[++epoch]]);
      ref.reset();
    }
    if (ref == nullptr) ref = MakeReference(graph);
    const ktg::KtgQuery& q = in.pool[a.query];
    std::string why = graph.Check(q, a.groups);
    if (why.empty()) {
      auto expect = ktg::RunKtg(ref->graph, *ref->index, *ref->checker, q, {});
      if (!expect.ok() || Profile(*expect) != Profile(a.groups)) {
        why = "coverage profile differs from a direct serial run";
      }
    }
    if (!why.empty()) refuse(r.count, why);
  }
  return invalid;
}

// Reads that overlapped an in-flight mutate, as round-trip times.
std::vector<double> ReadsDuringWrites(const std::vector<ConnTally>& conns) {
  std::vector<Interval> writes;
  for (const ConnTally& c : conns) {
    writes.insert(writes.end(), c.write_iv.begin(), c.write_iv.end());
  }
  std::sort(writes.begin(), writes.end());
  std::vector<int64_t> max_end(writes.size());
  int64_t m = INT64_MIN;
  for (size_t i = 0; i < writes.size(); ++i) {
    m = std::max(m, writes[i].second);
    max_end[i] = m;
  }
  std::vector<double> out;
  for (const ConnTally& c : conns) {
    for (const Interval& r : c.read_iv) {
      // Last write that started before this read ended.
      const auto it = std::lower_bound(
          writes.begin(), writes.end(), Interval{r.second, INT64_MIN});
      if (it == writes.begin()) continue;
      const size_t idx = static_cast<size_t>(it - writes.begin()) - 1;
      if (max_end[idx] > r.first) {
        out.push_back(static_cast<double>(r.second - r.first) / 1e6);
      }
    }
  }
  return out;
}

std::vector<std::string> RenderPool(const Inputs& in) {
  std::vector<std::string> lines;
  lines.reserve(in.pool.size());
  for (size_t i = 0; i < in.pool.size(); ++i) {
    lines.push_back(ktg::server::QueryRequestJson(
        i, in.graph, in.pool[i], ktg::SortStrategy::kVkcDeg, 0.0));
  }
  return lines;
}

// One full served pass: set-up(s), the window, the write probe, shutdown
// and validation.
struct Pass {
  std::vector<double> setup_s;
  Window warmup;
  Window window;
  double peak_rss_mb = 0.0;
  uint64_t invalid = 0;
  std::string invalid_why;
  // ktgd's engine work during the window (its registry minus the warm-up).
  EngineTotals engine_before;
  EngineTotals engine;
};

ktg::Status RunPass(const WorkloadSpec& spec, const Inputs& in,
                    const std::vector<std::string>& lines, double seconds,
                    int setups, bool trace, SpanLog* setup_log,
                    ServeStack* stack, Pass* pass) {
  // Every set-up but the last is torn down again; all are timed, with a
  // calibration before each and after the last.
  SpeedTrack setup_track;
  std::vector<double> cpu_s;
  for (int r = 0; r + 1 < setups; ++r) {
    ServeStack discarded;
    setup_track.Mark();
    double secs = 0.0;
    KTG_RETURN_IF_ERROR(
        StartServeStack(spec, in.dataset, &discarded, &secs, nullptr));
    cpu_s.push_back(secs);
  }
  setup_track.Mark();
  double secs = 0.0;
  KTG_RETURN_IF_ERROR(
      StartServeStack(spec, in.dataset, stack, &secs, setup_log));
  cpu_s.push_back(secs);
  setup_track.Mark();
  pass->setup_s = ReferenceSeconds(cpu_s, setup_track);
  // Warm-up: every pool query once, so the window starts from a warm
  // cache whatever the server's speed.
  std::vector<uint32_t> warm(in.pool.size());
  for (uint32_t i = 0; i < warm.size(); ++i) warm[i] = i;
  DriveClosedLoop(spec, in, warm, warm.size(), lines, stack->port, 0, false,
                  pass->warmup);
  pass->engine_before =
      EngineTotals::FromRegistry(stack->server->metrics());
  DriveClosedLoop(spec, in, in.stream, 0, lines, stack->port, seconds, trace,
                  pass->window);
  pass->engine =
      EngineTotals::FromRegistry(stack->server->metrics()).Since(
          pass->engine_before);
  pass->peak_rss_mb = PeakRssMb();
  if (spec.write_probes > 0) {
    pass->window.conns.emplace_back();
    WriteProbe(spec, in, stack->port, pass->window.mutations_used, trace,
               pass->window.track, pass->window.conns.back());
  }
  stack->Stop();
  std::vector<const ConnTally*> all;
  for (const Window* w : {&pass->warmup, &pass->window}) {
    for (const ConnTally& c : w->conns) all.push_back(&c);
  }
  pass->invalid = ValidateAnswers(in, all, &pass->invalid_why);
  return ktg::Status::OK();
}

FailureTally TallyOf(const Pass& pass) {
  FailureTally t;
  for (const Window* w : {&pass.warmup, &pass.window}) {
    for (const ConnTally& c : w->conns) t += c.tally;
  }
  t.invalid += pass.invalid;
  return t;
}

// Read statistics of a window, pooled over all of it, in reference time.
// The rate is every read of the window over the reference time of its
// chunks.
struct ReadStats {
  double rate_per_s = 0.0;
  double p50 = 0.0;
  TailPercentile tail;
  std::vector<float> cpu_ms;  // for the notes
  std::vector<double> ref_ms;

  explicit ReadStats(const Window& w) {
    for (const ConnTally& c : w.conns) {
      const std::vector<double> ms = c.read_ms.ReferenceMs(w.track);
      ref_ms.insert(ref_ms.end(), ms.begin(), ms.end());
      cpu_ms.insert(cpu_ms.end(), c.read_ms.cpu_ms.begin(),
                    c.read_ms.cpu_ms.end());
    }
    double ns = 0.0;
    for (size_t c = 0; c < w.window_chunks; ++c) ns += w.track.ReferenceNs(c);
    rate_per_s = ns > 0 ? static_cast<double>(ref_ms.size()) * 1e9 / ns : 0.0;
    p50 = Median(ref_ms);
    tail = TailRule(ref_ms);
  }
};

template <typename F>
std::vector<double> Gather(const Window& w, F field) {
  std::vector<double> out;
  for (const ConnTally& c : w.conns) {
    const auto& v = field(c);
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

}  // namespace

ktg::Result<RunOutput> RunServed(const WorkloadSpec& spec, const Inputs& in,
                                 const RunArgs& args) {
  RunOutput out;
  const std::vector<std::string> lines = RenderPool(in);

  if (!args.trace) {
    ServeStack stack;
    Pass pass;
    const ktg::Status st = RunPass(spec, in, lines, args.seconds,
                                   kSetupRepeats, false, nullptr, &stack,
                                   &pass);
    if (!st.ok()) return st;
    out.tally = TallyOf(pass);
    if (pass.invalid > 0) {
      out.correct = false;
      out.Note("validation: " + pass.invalid_why);
    }
    const Window& w = pass.window;
    out.Add("setup_s", Median(pass.setup_s), "s");
    const ReadStats rs(w);
    out.Add("queries_per_s", rs.rate_per_s, "1/ref_s");
    out.Add("read_p50_ms", rs.p50, "ref_ms");
    AddTail(&out, "read_p99_ms", rs.tail, "ref_ms");
    std::vector<double> writes;
    for (const ConnTally& c : w.conns) {
      const std::vector<double> ms = c.write_ms.ReferenceMs(w.track);
      writes.insert(writes.end(), ms.begin(), ms.end());
    }
    out.Add("write_p50_ms", Median(writes), "ref_ms");
    AddTail(&out, "write_p99_ms", TailRule(writes), "ref_ms");
    out.Add("peak_rss_mb", pass.peak_rss_mb, "MiB");
    NoteClock(&out, rs.cpu_ms, rs.ref_ms, w.track);
    out.Note("reads " + std::to_string(w.reads_ok) + ", writes " +
             std::to_string(writes.size()) +
             (spec.write_share > 0 ? " (in the window)"
                                   : " (probe after the window)"));
    NoteShares(&out, SharesBetween(w.start, w.end));
    return out;
  }

  // Traced: an untraced pass for the overhead baseline, then the traced
  // pass whose spans and replays give the per-layer metrics.
  double untraced_qps = 0.0;
  LayerReport layers;
  {
    ServeStack stack;
    Pass pass;
    const ktg::Status st = RunPass(spec, in, lines, args.seconds, 1, false,
                                   nullptr, &stack, &pass);
    if (!st.ok()) return st;
    out.tally += TallyOf(pass);
    if (pass.invalid > 0) out.correct = false;
    untraced_qps = ReadStats(pass.window).rate_per_s;
    layers.cpu_share = SharesBetween(pass.window.start, pass.window.end)
                           .cpu_share;
  }
  SpanLog setup_log;
  ServeStack stack;
  Pass pass;
  const ktg::Status st = RunPass(spec, in, lines, args.seconds, 1, true,
                                 &setup_log, &stack, &pass);
  if (!st.ok()) return st;
  out.tally += TallyOf(pass);
  if (pass.invalid > 0) {
    out.correct = false;
    out.Note("validation: " + pass.invalid_why);
  }
  const Window& w = pass.window;
  const double traced_qps = ReadStats(w).rate_per_s;

  std::vector<std::vector<Span>> per_thread{setup_log.spans()};
  std::vector<double> transport;
  for (const ConnTally& c : w.conns) {
    const auto self = SelfTimesMs(c.log.spans(), "client.request");
    transport.insert(transport.end(), self.begin(), self.end());
    per_thread.push_back(c.log.spans());
  }
  const auto queue = Gather(w, [](const ConnTally& c) -> const auto& {
    return c.queue_ms;
  });
  const auto exec = Gather(w, [](const ConnTally& c) -> const auto& {
    return c.exec_ms;
  });
  uint64_t coalesced = 0;
  for (const ConnTally& c : w.conns) {
    coalesced += c.coalesced;
    for (const MutateRecord& m : c.mutates) layers.applies.push_back(m.info);
  }
  SpanLog replay_log;
  const ktg::Status lst =
      ReplayServedLayers(spec, in, lines, w.slots, &replay_log, &layers);
  if (!lst.ok()) return lst;
  layers.datagen_build_s = SpanSeconds(setup_log, "datagen.build");
  layers.engine = pass.engine;
  layers.overhead_frac =
      untraced_qps > 0 ? 1.0 - traced_qps / untraced_qps : 0.0;
  per_thread.push_back(replay_log.spans());

  out.Add("server.protocol.parse_us", layers.parse_us, "us");
  out.Add("server.protocol.serialize_us", layers.serialize_us, "us");
  out.Add("server.transport_ms.p50", Median(transport), "ms");
  out.Add("server.queue_ms.p50", Median(queue), "ms");
  out.Add("server.exec_ms.p50", Median(exec), "ms");
  out.Add("server.coalesced_frac",
          w.reads_ok == 0 ? 0.0
                          : static_cast<double>(coalesced) /
                                static_cast<double>(w.reads_ok),
          "ratio");
  out.Add("server.read_during_write_ms.p50", Median(ReadsDuringWrites(w.conns)),
          "ms");
  AddLayerMetrics(layers, &out);
  NoteSelfTimes(&out, per_thread);
  if (!args.trace_path.empty() && !WriteSpans(args.trace_path, per_thread)) {
    out.Note("could not write spans to " + args.trace_path);
  }
  return out;
}

}  // namespace perfbench
