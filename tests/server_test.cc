// Copyright (c) 2026 The ktg Authors.
// The resident query service: protocol parsing, admission control,
// coalescing, deadlines, drain-on-stop, the TCP front end, and a loadgen
// differential pass — everything behind `ktg serve`.

#include <atomic>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/ktg_engine.h"
#include "core/snapshot.h"
#include "datagen/mutation_gen.h"
#include "datagen/presets.h"
#include "datagen/query_gen.h"
#include "index/checker_factory.h"
#include "server/loadgen.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/tcp.h"
#include "obs/schema_check.h"
#include "util/json_parse.h"
#include "util/macros.h"
#include "util/rng.h"

namespace ktg::server {
namespace {

using ::ktg::obs::CheckMetricsV1;
using ::ktg::obs::CheckResponseV1;

std::string Problems(const std::vector<std::string>& p) {
  std::string out;
  for (const auto& s : p) out += s + "; ";
  return out;
}

AttributedGraph TestGraph() {
  auto spec = GetPreset("gowalla", 0.05);
  KTG_CHECK_MSG(spec.ok(), "preset");
  return BuildDataset(*spec);
}

std::vector<KtgQuery> TestWorkload(const AttributedGraph& graph,
                                   uint32_t num_queries) {
  WorkloadOptions opts;
  opts.num_queries = num_queries;
  opts.group_size = 4;
  opts.tenuity = 2;
  opts.top_n = 5;
  opts.keyword_count = 6;
  opts.frequency_banded = true;
  Rng rng(11);
  return GenerateWorkload(graph, opts, rng);
}

/// Collects one response synchronously.
std::string Call(KtgServer& server, const std::string& line) {
  std::promise<std::string> promise;
  auto future = promise.get_future();
  server.HandleLine(line,
                    [&](std::string r) { promise.set_value(std::move(r)); });
  return future.get();
}

// ---------------------------------------------------------------------------
// Protocol parsing.

TEST(ProtocolTest, ParsesQueryRequest) {
  const auto req = ParseRequestLine(
      R"({"op":"query","id":7,"keywords":["a","b"],"p":4,"k":2,"n":3,)"
      R"("algo":"vkc","deadline_ms":12.5,"authors":[1,2]})");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->op, RequestOp::kQuery);
  EXPECT_EQ(req->id, 7u);
  EXPECT_EQ(req->keywords, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(req->group_size, 4u);
  EXPECT_EQ(req->tenuity, 2);
  EXPECT_EQ(req->top_n, 3u);
  EXPECT_EQ(req->sort, SortStrategy::kVkc);
  EXPECT_DOUBLE_EQ(req->deadline_ms, 12.5);
  EXPECT_EQ(req->authors, (std::vector<VertexId>{1, 2}));
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  EXPECT_FALSE(ParseRequestLine("not json").ok());
  EXPECT_FALSE(ParseRequestLine("[1,2]").ok());
  EXPECT_FALSE(ParseRequestLine(R"({"op":"frobnicate","id":1})").ok());
  // query without keywords
  EXPECT_FALSE(ParseRequestLine(R"({"op":"query","id":1})").ok());
  // p out of range
  EXPECT_FALSE(
      ParseRequestLine(R"({"op":"query","keywords":["a"],"p":65})").ok());
  // negative deadline
  EXPECT_FALSE(ParseRequestLine(
                   R"({"op":"query","keywords":["a"],"deadline_ms":-1})")
                   .ok());
  // mistyped keyword entries
  EXPECT_FALSE(
      ParseRequestLine(R"({"op":"query","keywords":[1,2]})").ok());
  // Vertex ids must be integers in [0, kInvalidVertex): out-of-range or
  // fractional ids must not wrap or truncate onto real vertices.
  for (const char* line : {
           R"({"op":"query","keywords":["a"],"authors":[4294967296]})",
           R"({"op":"query","keywords":["a"],"authors":[4294967295]})",
           R"({"op":"query","keywords":["a"],"authors":[1e20]})",
           R"({"op":"query","keywords":["a"],"authors":[1.5]})",
           R"({"op":"query","keywords":["a"],"authors":[-1]})",
           R"({"op":"query","keywords":["a"],"authors":["7"]})",
           R"({"op":"mutate","add_edges":[[1e20,2]]})",
           R"({"op":"mutate","remove_edges":[[1,2.5]]})",
           R"({"op":"mutate","add_keywords":[[4294967297,"x"]]})",
       }) {
    const auto req = ParseRequestLine(line);
    ASSERT_FALSE(req.ok()) << line;
    EXPECT_EQ(req.status().code(), StatusCode::kInvalidArgument) << line;
  }
  // The largest valid id still parses.
  const auto top = ParseRequestLine(
      R"({"op":"query","keywords":["a"],"authors":[4294967294]})");
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_EQ(top->authors, (std::vector<VertexId>{4294967294u}));
}

TEST(ProtocolTest, ParsesMutateRequest) {
  const auto req = ParseRequestLine(
      R"({"op":"mutate","id":9,"add_edges":[[1,2]],"remove_edges":[[3,4]],)"
      R"("add_keywords":[[5,"db"]]})");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->op, RequestOp::kMutate);
  EXPECT_EQ(req->mutation.add_edges,
            (std::vector<std::pair<VertexId, VertexId>>{{1, 2}}));
  EXPECT_EQ(req->mutation.remove_edges,
            (std::vector<std::pair<VertexId, VertexId>>{{3, 4}}));
  ASSERT_EQ(req->mutation.add_keywords.size(), 1u);
  EXPECT_EQ(req->mutation.add_keywords[0].first, 5u);
  EXPECT_EQ(req->mutation.add_keywords[0].second, "db");

  // A mutate with no deltas is a protocol error, as are malformed entries.
  EXPECT_FALSE(ParseRequestLine(R"({"op":"mutate","id":1})").ok());
  EXPECT_FALSE(
      ParseRequestLine(R"({"op":"mutate","add_edges":[[1]]})").ok());
  EXPECT_FALSE(
      ParseRequestLine(R"({"op":"mutate","add_keywords":[[5,""]]})").ok());
}

TEST(ProtocolTest, MutateRequestRoundTripsThroughParse) {
  MutationBatch batch;
  batch.add_edges = {{1, 2}, {7, 9}};
  batch.remove_edges = {{3, 4}};
  batch.add_keywords = {{5, "db"}, {6, "graphs"}};
  const auto req = ParseRequestLine(MutateRequestJson(11, batch));
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->id, 11u);
  EXPECT_EQ(req->op, RequestOp::kMutate);
  EXPECT_EQ(req->mutation.add_edges, batch.add_edges);
  EXPECT_EQ(req->mutation.remove_edges, batch.remove_edges);
  EXPECT_EQ(req->mutation.add_keywords, batch.add_keywords);
}

TEST(ProtocolTest, QueryRequestRoundTripsThroughParse) {
  const AttributedGraph graph = TestGraph();
  const auto queries = TestWorkload(graph, 1);
  ASSERT_FALSE(queries.empty());
  const std::string line =
      QueryRequestJson(42, graph, queries[0], SortStrategy::kVkcDeg, 0.0);
  const auto req = ParseRequestLine(line);
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->id, 42u);
  EXPECT_EQ(req->group_size, queries[0].group_size);
  EXPECT_EQ(req->tenuity, queries[0].tenuity);
  EXPECT_EQ(req->top_n, queries[0].top_n);
  EXPECT_EQ(req->keywords.size(), queries[0].keywords.size());
}

// ---------------------------------------------------------------------------
// KtgServer behavior.

TEST(KtgServerTest, InlineOpsAnswerImmediately) {
  KtgServer server(TestGraph(), {});
  ASSERT_TRUE(server.Start().ok());

  const std::string pong = Call(server, PingRequestJson(3));
  EXPECT_TRUE(CheckResponseV1(pong).empty()) << Problems(CheckResponseV1(pong));
  EXPECT_NE(pong.find("\"pong\":true"), std::string::npos);

  const std::string metrics = Call(server, MetricsRequestJson(4));
  ASSERT_TRUE(CheckResponseV1(metrics).empty())
      << Problems(CheckResponseV1(metrics));
  auto doc = ParseJson(metrics);
  ASSERT_TRUE(doc.ok());
  const JsonValue* m = doc->Find("metrics");
  ASSERT_NE(m, nullptr);
  EXPECT_TRUE(CheckMetricsV1(DumpJson(*m)).empty())
      << Problems(CheckMetricsV1(DumpJson(*m)));

  const std::string info = Call(server, R"({"op":"info","id":5})");
  auto info_doc = ParseJson(info);
  ASSERT_TRUE(info_doc.ok());
  ASSERT_NE(info_doc->Find("info"), nullptr);
  EXPECT_NE(info_doc->Find("info")->Find("dataset"), nullptr);

  const std::string err = Call(server, "{\"op\":\"nope\"}");
  EXPECT_NE(err.find("\"status\":\"error\""), std::string::npos);
  server.Stop();
}

// With or without a cache attached, a query that misses the result cache
// runs the same search as an uncached serial library run on the pinned
// snapshot: same groups, nodes, k-line removals and distance checks (the
// server's metrics carry the counters the response does not).
TEST(KtgServerTest, QueryResponsesMatchDirectEngineRuns) {
  AttributedGraph graph = TestGraph();
  const auto queries = TestWorkload(graph, 6);
  ASSERT_FALSE(queries.empty());

  for (const size_t cache_mb : {size_t{0}, size_t{16}}) {
    SCOPED_TRACE("cache_mb=" + std::to_string(cache_mb));
    ServerOptions opts;
    opts.cache_mb = cache_mb;
    opts.checker = CheckerKind::kNlrnl;
    KtgServer server(graph, opts);
    ASSERT_TRUE(server.Start().ok());
    const SnapshotPin pin = server.Pin();

    SearchStats want;
    for (size_t i = 0; i < queries.size(); ++i) {
      const std::string response = Call(
          server,
          QueryRequestJson(i, graph, queries[i], SortStrategy::kVkcDeg, 0.0));
      ASSERT_TRUE(CheckResponseV1(response).empty())
          << Problems(CheckResponseV1(response));

      const auto expect = RunKtg(pin->graph(), pin->index(), *pin->checker(),
                                 queries[i], EngineOptions{});
      ASSERT_TRUE(expect.ok());
      want += expect->stats;
      auto doc = ParseJson(response);
      ASSERT_TRUE(doc.ok());
      const JsonValue* groups = doc->Find("groups");
      ASSERT_NE(groups, nullptr);
      ASSERT_EQ(groups->AsArray().size(), expect->groups.size());
      for (size_t g = 0; g < expect->groups.size(); ++g) {
        const JsonValue& jg = groups->AsArray()[g];
        EXPECT_EQ(static_cast<int>(jg.Find("covered")->AsDouble()),
                  expect->groups[g].covered());
        const auto& members = jg.Find("members")->AsArray();
        ASSERT_EQ(members.size(), expect->groups[g].members.size());
        for (size_t m = 0; m < members.size(); ++m) {
          EXPECT_EQ(static_cast<VertexId>(members[m].AsDouble()),
                    expect->groups[g].members[m]);
        }
      }
      const JsonValue* stats = doc->Find("stats");
      ASSERT_NE(stats, nullptr);
      EXPECT_EQ(stats->GetInt("nodes_expanded", -1).value(),
                static_cast<int64_t>(expect->stats.nodes_expanded))
          << "query " << i;
      EXPECT_EQ(stats->GetInt("distance_checks", -1).value(),
                static_cast<int64_t>(expect->stats.distance_checks))
          << "query " << i;
    }
    ASSERT_GT(want.distance_checks, 0u);
    ASSERT_GT(want.kline_filtered, 0u);
    const obs::MetricsRegistry& m = server.metrics();
    EXPECT_EQ(m.CounterValue("engine.queries"), queries.size())
        << "every query must have reached the engine";
    EXPECT_EQ(m.CounterValue("engine.nodes_expanded"), want.nodes_expanded);
    EXPECT_EQ(m.CounterValue("engine.prune.kline"), want.kline_filtered);
    EXPECT_EQ(m.CounterValue("engine.distance_checks"), want.distance_checks);
    EXPECT_EQ(m.CounterValue("checker.NLRNL.checks"), want.distance_checks);
    server.Stop();
  }
}

TEST(KtgServerTest, MutateAdvancesEpochAndQueriesPinIt) {
  AttributedGraph graph = TestGraph();
  const auto queries = TestWorkload(graph, 2);
  ASSERT_FALSE(queries.empty());
  const auto edges = graph.graph().EdgeList();
  ASSERT_FALSE(edges.empty());

  KtgServer server(graph, {});
  ASSERT_TRUE(server.Start().ok());

  // Before any mutation, responses name epoch 0.
  auto d0 = ParseJson(Call(server, QueryRequestJson(1, graph, queries[0],
                                                    SortStrategy::kVkcDeg, 0)));
  ASSERT_TRUE(d0.ok());
  EXPECT_EQ(d0->Find("serving")->GetInt("epoch", -1).value(), 0);

  // Remove an existing edge through the wire op.
  MutationBatch batch;
  batch.remove_edges = {edges.front()};
  auto md = ParseJson(Call(server, MutateRequestJson(2, batch)));
  ASSERT_TRUE(md.ok());
  EXPECT_EQ(md->Find("status")->AsString(), "ok");
  const JsonValue* info = md->Find("mutate");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->GetInt("epoch", -1).value(), 1);
  EXPECT_EQ(info->GetInt("edges_removed", -1).value(), 1);

  // The published snapshot reflects the change and later queries pin it.
  const SnapshotPin pin = server.Pin();
  EXPECT_EQ(pin->epoch(), 1u);
  EXPECT_FALSE(
      pin->graph().graph().HasEdge(edges.front().first, edges.front().second));
  auto d1 = ParseJson(Call(server, QueryRequestJson(3, graph, queries[0],
                                                    SortStrategy::kVkcDeg, 0)));
  ASSERT_TRUE(d1.ok());
  EXPECT_EQ(d1->Find("serving")->GetInt("epoch", -1).value(), 1);
  EXPECT_EQ(server.metrics().CounterValue("server.mutations"), 1u);

  // Invalid batches are rejected atomically with an error response.
  MutationBatch bad;
  bad.add_edges = {{0, 0}};  // self-loop
  auto bd = ParseJson(Call(server, MutateRequestJson(4, bad)));
  ASSERT_TRUE(bd.ok());
  EXPECT_EQ(bd->Find("status")->AsString(), "error");
  EXPECT_EQ(server.Pin()->epoch(), 1u);
  server.Stop();
}

TEST(KtgServerTest, AdmissionControlRejectsWhenQueueFull) {
  AttributedGraph graph = TestGraph();
  const auto queries = TestWorkload(graph, 1);
  ASSERT_FALSE(queries.empty());

  ServerOptions opts;
  opts.workers = 1;
  opts.max_queue = 0;  // every query is over the bound
  KtgServer server(std::move(graph), opts);
  ASSERT_TRUE(server.Start().ok());

  const std::string response = [&] {
    std::promise<std::string> p;
    auto f = p.get_future();
    server.SubmitQuery(9, queries[0], SortStrategy::kVkcDeg, 0.0,
                       [&](std::string r) { p.set_value(std::move(r)); });
    return f.get();
  }();
  ASSERT_TRUE(CheckResponseV1(response).empty())
      << Problems(CheckResponseV1(response));
  auto doc = ParseJson(response);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("status")->AsString(), "rejected");
  EXPECT_GE(doc->Find("retry_after_ms")->AsDouble(), 1.0);
  EXPECT_EQ(server.metrics().CounterValue("server.rejected"), 1u);
  server.Stop();
}

TEST(KtgServerTest, ExpiredDeadlineServesBestSoFarWithGap) {
  AttributedGraph graph = TestGraph();
  const auto queries = TestWorkload(graph, 1);
  ASSERT_FALSE(queries.empty());

  KtgServer server(std::move(graph), {});
  ASSERT_TRUE(server.Start().ok());
  // Any nonzero queue wait exceeds a 1ns deadline by the time a worker
  // claims the request: the run happens anyway (floor budget, anytime
  // mode) and the response carries best-so-far groups plus a sound gap
  // instead of a bare timeout.
  std::promise<std::string> p;
  auto f = p.get_future();
  server.SubmitQuery(1, queries[0], SortStrategy::kVkcDeg, 1e-6,
                     [&](std::string r) { p.set_value(std::move(r)); });
  const std::string response = f.get();
  ASSERT_TRUE(CheckResponseV1(response).empty())
      << Problems(CheckResponseV1(response));
  auto doc = ParseJson(response);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("status")->AsString(), "ok");
  const JsonValue* serving = doc->Find("serving");
  ASSERT_NE(serving, nullptr);
  EXPECT_FALSE(serving->GetBool("complete", true).value());
  // The gap is a sound bound: 0 <= gap <= |W_Q|.
  const double gap = serving->Find("gap")->AsDouble();
  EXPECT_GE(gap, 0.0);
  EXPECT_LE(gap, static_cast<double>(queries[0].keywords.size()));
  EXPECT_GE(server.metrics().CounterValue("server.deadline_missed"), 1u);
  EXPECT_GE(server.metrics().CounterValue("server.expired_served"), 1u);
  server.Stop();
}

// The wire accepts "mode":"exact|anytime" only. A removed or unknown mode
// gets an error response naming the accepted modes, and the server goes
// on serving the next request.
TEST(KtgServerTest, UnknownModeIsAnErrorAndServingContinues) {
  AttributedGraph graph = TestGraph();
  const auto queries = TestWorkload(graph, 1);
  ASSERT_FALSE(queries.empty());
  const std::string anytime = QueryRequestJson(
      1, graph, queries[0], SortStrategy::kVkcDeg, 0.0, EngineMode::kAnytime);
  const std::string tag = R"("mode":"anytime")";
  ASSERT_NE(anytime.find(tag), std::string::npos);

  KtgServer server(graph, {});
  ASSERT_TRUE(server.Start().ok());
  for (const std::string mode : {"portfolio", "bogus"}) {
    std::string line = anytime;
    line.replace(line.find(tag), tag.size(), R"("mode":")" + mode + "\"");
    auto doc = ParseJson(Call(server, line));
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc->Find("status")->AsString(), "error") << mode;
    EXPECT_NE(doc->Find("message")->AsString().find("expected exact|anytime"),
              std::string::npos)
        << mode;
  }
  auto ok = ParseJson(Call(server, anytime));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->Find("status")->AsString(), "ok");
  server.Stop();
}

// Blocks the single worker inside request A's response callback, queues
// five identical queries behind it, then releases: the next claim must
// coalesce all five into one engine run.
TEST(KtgServerTest, IdenticalQueuedQueriesCoalesceIntoOneRun) {
  AttributedGraph graph = TestGraph();
  const auto queries = TestWorkload(graph, 2);
  ASSERT_GE(queries.size(), 2u);

  ServerOptions opts;
  opts.workers = 1;
  KtgServer server(std::move(graph), opts);
  ASSERT_TRUE(server.Start().ok());

  std::promise<void> worker_blocked;
  std::promise<void> release;
  auto release_future = release.get_future().share();
  server.SubmitQuery(0, queries[0], SortStrategy::kVkcDeg, 0.0,
                     [&, first = true](std::string) mutable {
                       if (!first) return;
                       first = false;
                       worker_blocked.set_value();
                       release_future.wait();
                     });
  worker_blocked.get_future().wait();

  constexpr int kDuplicates = 5;
  std::mutex mu;
  std::condition_variable cv;
  int answered = 0;
  int coalesced_flags = 0;
  std::vector<std::string> member_dumps;
  for (int i = 0; i < kDuplicates; ++i) {
    server.SubmitQuery(
        100 + i, queries[1], SortStrategy::kVkcDeg, 0.0, [&](std::string r) {
          auto doc = ParseJson(r);
          ASSERT_TRUE(doc.ok());
          ASSERT_EQ(doc->Find("status")->AsString(), "ok");
          std::lock_guard<std::mutex> lock(mu);
          const JsonValue* serving = doc->Find("serving");
          if (serving->GetBool("coalesced", false).value()) ++coalesced_flags;
          member_dumps.push_back(DumpJson(*doc->Find("groups")));
          if (++answered == kDuplicates) cv.notify_one();
        });
  }
  EXPECT_EQ(server.queue_depth(), static_cast<size_t>(kDuplicates));
  release.set_value();
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return answered == kDuplicates; });
  }
  EXPECT_EQ(coalesced_flags, kDuplicates - 1);
  EXPECT_EQ(server.metrics().CounterValue("server.batch.coalesced"),
            static_cast<uint64_t>(kDuplicates - 1));
  for (const std::string& d : member_dumps) {
    EXPECT_EQ(d, member_dumps.front());
  }
  server.Stop();
}

TEST(KtgServerTest, StopDrainsQueuedRequestsThenRefusesNew) {
  AttributedGraph graph = TestGraph();
  const auto queries = TestWorkload(graph, 4);
  ASSERT_GE(queries.size(), 4u);

  ServerOptions opts;
  opts.workers = 1;
  KtgServer server(std::move(graph), opts);
  ASSERT_TRUE(server.Start().ok());

  std::promise<void> worker_blocked;
  std::promise<void> release;
  auto release_future = release.get_future().share();
  server.SubmitQuery(0, queries[0], SortStrategy::kVkcDeg, 0.0,
                     [&, first = true](std::string) mutable {
                       if (!first) return;
                       first = false;
                       worker_blocked.set_value();
                       release_future.wait();
                     });
  worker_blocked.get_future().wait();

  std::atomic<int> answered{0};
  for (int i = 1; i < 4; ++i) {
    server.SubmitQuery(i, queries[i], SortStrategy::kVkcDeg, 0.0,
                       [&](std::string r) {
                         EXPECT_NE(r.find("\"status\":\"ok\""),
                                   std::string::npos);
                         answered.fetch_add(1);
                       });
  }
  std::thread stopper([&] { server.Stop(); });
  release.set_value();
  stopper.join();
  // Stop() returns only after the workers drained the queue.
  EXPECT_EQ(answered.load(), 3);

  std::promise<std::string> p;
  auto f = p.get_future();
  server.SubmitQuery(99, queries[0], SortStrategy::kVkcDeg, 0.0,
                     [&](std::string r) { p.set_value(std::move(r)); });
  EXPECT_NE(f.get().find("\"status\":\"error\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// TCP front end + load generator, end to end.

TEST(TcpEndToEndTest, LoadgenClosedLoopDifferentialIsClean) {
  AttributedGraph graph = TestGraph();
  const auto queries = TestWorkload(graph, 8);
  ASSERT_FALSE(queries.empty());

  ServerOptions sopts;
  sopts.workers = 2;
  sopts.cache_mb = 8;
  KtgServer server(graph, sopts);
  ASSERT_TRUE(server.Start().ok());
  TcpServer tcp(server);
  ASSERT_TRUE(tcp.Listen(0).ok());
  ASSERT_GT(tcp.port(), 0);
  tcp.Start();

  const InvertedIndex index(graph);
  const auto checker =
      MakeChecker(CheckerKind::kNlrnl, graph.graph(), /*num_threads=*/0);
  std::mutex mu;
  std::map<size_t, KtgResult> memo;

  LoadgenOptions lopts;
  lopts.connections = 3;
  lopts.duration_s = 0;
  lopts.max_queries = 200;
  lopts.reference = [&](size_t qi, uint64_t epoch) -> const KtgResult* {
    EXPECT_EQ(epoch, 0u);  // read-only run: every response pins epoch 0
    std::lock_guard<std::mutex> lock(mu);
    auto it = memo.find(qi);
    if (it == memo.end()) {
      auto r = RunKtg(graph, index, *checker, queries[qi], {});
      if (!r.ok()) return nullptr;
      it = memo.emplace(qi, std::move(*r)).first;
    }
    return &it->second;
  };

  const auto report =
      RunLoadgen("127.0.0.1", tcp.port(), graph, queries, lopts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->sent, 200u);
  EXPECT_EQ(report->completed, 200u);
  EXPECT_EQ(report->errors, 0u);
  EXPECT_EQ(report->checked, 200u);
  EXPECT_EQ(report->mismatches, 0u);
  EXPECT_GT(report->latency.count, 0u);

  // The report document itself is schema-stable.
  auto doc = ParseJson(report->ToJson());
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("schema")->AsString(), "ktg.loadgen.v1");

  tcp.Shutdown();
  server.Stop();
}

// Mixed read/write run over TCP: ~20% of slots are mutate requests; every
// complete query response must be bit-identical to a direct engine run
// against the epoch that response pinned (oracle replays the server's
// applied-order history through its own SnapshotStore).
TEST(TcpEndToEndTest, MixedLoadgenDifferentialIsCleanAcrossEpochs) {
  AttributedGraph graph = TestGraph();
  const auto queries = TestWorkload(graph, 8);
  ASSERT_FALSE(queries.empty());

  ServerOptions sopts;
  sopts.workers = 2;
  sopts.cache_mb = 8;
  KtgServer server(graph, sopts);
  ASSERT_TRUE(server.Start().ok());
  TcpServer tcp(server);
  ASSERT_TRUE(tcp.Listen(0).ok());
  tcp.Start();

  LoadgenOptions lopts;
  lopts.connections = 3;
  lopts.duration_s = 0;
  lopts.max_queries = 150;
  lopts.write_ratio = 0.2;
  lopts.seed = 5;
  MutationWorkloadOptions mopts;
  mopts.num_batches = 16;
  mopts.edges_per_batch = 2;
  mopts.keywords_per_batch = 1;
  Rng mrng(23);
  lopts.mutations = GenerateMutationWorkload(graph, mopts, mrng);
  ASSERT_FALSE(lopts.mutations.empty());

  SnapshotStore oracle(AttributedGraph(graph), {});
  std::mutex mu;
  std::map<uint64_t, size_t> epoch_batches;
  std::map<uint64_t, SnapshotPin> pins;
  pins[0] = oracle.Pin();
  std::map<std::pair<size_t, uint64_t>, KtgResult> memo;
  lopts.on_mutation_applied = [&](uint64_t epoch, size_t mi) {
    std::lock_guard<std::mutex> lock(mu);
    epoch_batches[epoch] = mi;
  };
  lopts.reference = [&](size_t qi, uint64_t epoch) -> const KtgResult* {
    std::lock_guard<std::mutex> lock(mu);
    if (const auto it = memo.find({qi, epoch}); it != memo.end()) {
      return &it->second;
    }
    while (oracle.epoch() < epoch) {
      const auto bi = epoch_batches.find(oracle.epoch() + 1);
      if (bi == epoch_batches.end()) return nullptr;
      if (!oracle.Apply(lopts.mutations[bi->second]).ok()) return nullptr;
      pins[oracle.epoch()] = oracle.Pin();
    }
    const auto pin = pins.find(epoch);
    if (pin == pins.end()) return nullptr;
    auto r = RunKtg(pin->second->graph(), pin->second->index(),
                    *pin->second->checker(), queries[qi], {});
    if (!r.ok()) return nullptr;
    return &memo.emplace(std::make_pair(qi, epoch), std::move(*r))
                .first->second;
  };

  const auto report =
      RunLoadgen("127.0.0.1", tcp.port(), graph, queries, lopts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->errors, 0u);
  EXPECT_GT(report->mutations_applied, 0u);
  EXPECT_EQ(report->mutations_failed, 0u);
  EXPECT_EQ(report->mutations_applied, report->final_epoch);
  EXPECT_GT(report->checked, 0u);
  EXPECT_EQ(report->mismatches, 0u);

  tcp.Shutdown();
  server.Stop();
}

TEST(TcpEndToEndTest, OpenLoopDrainsAndReportsAllResponses) {
  AttributedGraph graph = TestGraph();
  const auto queries = TestWorkload(graph, 4);
  ASSERT_FALSE(queries.empty());

  KtgServer server(graph, {});
  ASSERT_TRUE(server.Start().ok());
  TcpServer tcp(server);
  ASSERT_TRUE(tcp.Listen(0).ok());
  tcp.Start();

  LoadgenOptions lopts;
  lopts.open_loop = true;
  lopts.connections = 2;
  lopts.rate_qps = 500;
  lopts.duration_s = 0;
  lopts.max_queries = 60;
  const auto report =
      RunLoadgen("127.0.0.1", tcp.port(), graph, queries, lopts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->sent, 60u);
  EXPECT_EQ(report->completed, 60u);
  EXPECT_EQ(report->errors, 0u);

  tcp.Shutdown();
  server.Stop();
}

}  // namespace
}  // namespace ktg::server
