// Copyright (c) 2026 The ktg Authors.
// CLI tests: the flag parser and each command end-to-end against temp
// files (generate → stats → build-index → query round trip).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/args.h"
#include "cli/commands.h"
#include "graph/graph_io.h"
#include "obs/schema_check.h"

namespace ktg::cli {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

Result<Args> ParseFor(std::vector<std::string> argv) {
  static const std::vector<std::string> kFlags = {
      "preset", "scale", "edges", "attrs", "out",  "kind", "keywords",
      "p",      "k",     "n",     "algo",  "flag", "x"};
  return Args::Parse(argv, kFlags);
}

TEST(ArgsTest, ParsesCommandAndFlags) {
  auto args = ParseFor({"query", "--edges", "g.txt", "--p", "3",
                        "--keywords=a,b", "--flag"});
  ASSERT_TRUE(args.ok()) << args.status().ToString();
  EXPECT_EQ(args->command(), "query");
  EXPECT_EQ(args->GetString("edges"), "g.txt");
  EXPECT_EQ(args->GetInt("p", 0).value(), 3);
  EXPECT_EQ(args->GetList("keywords"),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(args->GetBool("flag"));
  EXPECT_FALSE(args->GetBool("absent"));
}

TEST(ArgsTest, RejectsUnknownFlag) {
  const auto args = ParseFor({"query", "--bogus", "1"});
  ASSERT_FALSE(args.ok());
  EXPECT_EQ(args.status().code(), StatusCode::kInvalidArgument);
}

TEST(ArgsTest, RejectsStrayPositional) {
  const auto args = ParseFor({"query", "extra"});
  ASSERT_FALSE(args.ok());
}

TEST(ArgsTest, TypedGetterErrors) {
  auto args = ParseFor({"query", "--p", "three", "--scale", "fast"});
  ASSERT_TRUE(args.ok());
  EXPECT_FALSE(args->GetInt("p", 0).ok());
  EXPECT_FALSE(args->GetDouble("scale", 0).ok());
  EXPECT_EQ(args->GetInt("k", 7).value(), 7);  // default path
}

TEST(ArgsTest, DefaultsAndEmptyList) {
  auto args = ParseFor({"stats"});
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args->GetString("edges", "fallback"), "fallback");
  EXPECT_TRUE(args->GetList("keywords").empty());
}

TEST(ArgsTest, BoolSpellings) {
  auto args = ParseFor({"q1", "--flag", "false"});
  // "q1" command then --flag false.
  ASSERT_TRUE(args.ok());
  EXPECT_FALSE(args->GetBool("flag", true));
}

TEST(ArgsTest, IntOverflowIsAnErrorNotSaturation) {
  auto args = ParseFor({"q", "--p", "99999999999999999999999"});
  ASSERT_TRUE(args.ok());
  const auto v = args->GetInt("p", 0);
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().message().find("out of range"), std::string::npos);
}

TEST(ArgsTest, DoubleOverflowIsAnError) {
  auto args = ParseFor({"q", "--scale", "1e999"});
  ASSERT_TRUE(args.ok());
  const auto v = args->GetDouble("scale", 0);
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().message().find("out of range"), std::string::npos);
}

TEST(ArgsTest, PartialNumbersAreRejected) {
  auto args = ParseFor({"q", "--p", "3x", "--scale", "1.5abc"});
  ASSERT_TRUE(args.ok());
  EXPECT_FALSE(args->GetInt("p", 0).ok());
  EXPECT_FALSE(args->GetDouble("scale", 0).ok());
}

TEST(ArgsTest, CheckExclusiveFlagPairs) {
  auto both = ParseFor({"q", "--preset", "dblp", "--edges", "g.txt"});
  ASSERT_TRUE(both.ok());
  const Status st = both->CheckExclusive("preset", "edges");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("mutually exclusive"), std::string::npos);

  auto one = ParseFor({"q", "--preset", "dblp"});
  ASSERT_TRUE(one.ok());
  EXPECT_TRUE(one->CheckExclusive("preset", "edges").ok());
  auto neither = ParseFor({"q"});
  ASSERT_TRUE(neither.ok());
  EXPECT_TRUE(neither->CheckExclusive("preset", "edges").ok());
}

class CliCommandTest : public ::testing::Test {
 protected:
  void SetUp() override {
    edges_ = TempPath("ktg_cli_edges.txt");
    attrs_ = TempPath("ktg_cli_attrs.txt");
    index_ = TempPath("ktg_cli.idx");
    // Generate a tiny dataset once.
    const auto args = Args::Parse(
        {"generate", "--preset", "brightkite", "--scale", "0.02", "--edges",
         edges_, "--attrs", attrs_},
        {"preset", "scale", "edges", "attrs"});
    ASSERT_TRUE(args.ok());
    ASSERT_TRUE(CmdGenerate(*args).ok());
  }
  void TearDown() override {
    std::remove(edges_.c_str());
    std::remove(attrs_.c_str());
    std::remove(index_.c_str());
  }

  std::string edges_, attrs_, index_;
};

TEST_F(CliCommandTest, StatsRuns) {
  const auto args =
      Args::Parse({"stats", "--edges", edges_, "--attrs", attrs_},
                  {"edges", "attrs"});
  ASSERT_TRUE(args.ok());
  EXPECT_TRUE(CmdStats(*args).ok());
}

TEST_F(CliCommandTest, StatsMissingEdgesFails) {
  const auto args = Args::Parse({"stats"}, {"edges"});
  ASSERT_TRUE(args.ok());
  EXPECT_FALSE(CmdStats(*args).ok());
}

TEST_F(CliCommandTest, BuildIndexAndQueryViaIndex) {
  {
    const auto args = Args::Parse(
        {"build-index", "--edges", edges_, "--kind", "nlrnl", "--out",
         index_},
        {"edges", "kind", "out"});
    ASSERT_TRUE(args.ok());
    ASSERT_TRUE(CmdBuildIndex(*args).ok());
  }
  {
    const auto args = Args::Parse(
        {"query", "--edges", edges_, "--attrs", attrs_, "--index", index_,
         "--keywords", "kw0,kw1,kw2", "--p", "2", "--k", "1", "--n", "2"},
        {"edges", "attrs", "index", "keywords", "p", "k", "n"});
    ASSERT_TRUE(args.ok());
    EXPECT_TRUE(CmdQuery(*args).ok());
  }
}

// An index file built over a relabeled copy of the graph answers distance
// checks for the wrong vertices; query must refuse it instead of returning
// groups that violate the tenuity constraint. A matching index still works.
TEST_F(CliCommandTest, QueryRejectsIndexOverADifferentGraph) {
  const auto original = LoadEdgeList(edges_);
  ASSERT_TRUE(original.ok());
  // Reverse the ids of the non-isolated vertices: same vertex count (the
  // largest id keeps an edge), same shape, different labels.
  std::vector<VertexId> touched;
  for (VertexId v = 0; v < original->num_vertices(); ++v) {
    if (original->Degree(v) > 0) touched.push_back(v);
  }
  std::vector<VertexId> relabel(original->num_vertices());
  for (VertexId v = 0; v < original->num_vertices(); ++v) relabel[v] = v;
  for (size_t i = 0; i < touched.size(); ++i) {
    relabel[touched[i]] = touched[touched.size() - 1 - i];
  }
  GraphBuilder builder(original->num_vertices());
  for (const auto& [u, v] : original->EdgeList()) {
    builder.AddEdge(relabel[u], relabel[v]);
  }
  const Graph permuted = builder.Build();
  ASSERT_EQ(permuted.num_vertices(), original->num_vertices());
  ASSERT_NE(permuted.EdgeList(), original->EdgeList());
  const std::string permuted_edges = TempPath("ktg_cli_permuted_edges.txt");
  ASSERT_TRUE(SaveEdgeList(permuted, permuted_edges).ok());

  const auto build = [&](const std::string& edges, const std::string& kind) {
    const auto args = Args::Parse(
        {"build-index", "--edges", edges, "--kind", kind, "--out", index_},
        {"edges", "kind", "out"});
    ASSERT_TRUE(args.ok());
    ASSERT_TRUE(CmdBuildIndex(*args).ok());
  };
  const auto query = [&] {
    const auto args = Args::Parse(
        {"query", "--edges", edges_, "--attrs", attrs_, "--index", index_,
         "--keywords", "kw0,kw1,kw2", "--p", "2", "--k", "1", "--n", "2"},
        {"edges", "attrs", "index", "keywords", "p", "k", "n"});
    return args.ok() ? CmdQuery(*args) : args.status();
  };
  for (const std::string kind : {"nl", "nlrnl"}) {
    build(permuted_edges, kind);
    const Status st = query();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << kind;
    build(edges_, kind);
    EXPECT_TRUE(query().ok()) << kind;
  }
  std::remove(permuted_edges.c_str());
}

TEST_F(CliCommandTest, QueryAllAlgorithms) {
  for (const std::string algo :
       {"vkc-deg", "vkc", "qkc", "greedy", "dktg", "tagq"}) {
    const auto args = Args::Parse(
        {"query", "--edges", edges_, "--attrs", attrs_, "--checker", "bfs",
         "--keywords", "kw0,kw1,kw2,kw3", "--p", "2", "--k", "1", "--algo",
         algo},
        {"edges", "attrs", "checker", "keywords", "p", "k", "algo"});
    ASSERT_TRUE(args.ok());
    EXPECT_TRUE(CmdQuery(*args).ok()) << algo;
  }
}

TEST_F(CliCommandTest, QueryRejectsBadAlgo) {
  const auto args = Args::Parse(
      {"query", "--edges", edges_, "--attrs", attrs_, "--keywords", "kw0",
       "--algo", "quantum"},
      {"edges", "attrs", "keywords", "algo"});
  ASSERT_TRUE(args.ok());
  EXPECT_FALSE(CmdQuery(*args).ok());
}

TEST_F(CliCommandTest, QueryRejectsUnknownMode) {
  for (const std::string mode : {"exact", "anytime", "portfolio"}) {
    const auto args = Args::Parse(
        {"query", "--edges", edges_, "--attrs", attrs_, "--checker", "bfs",
         "--keywords", "kw0,kw1", "--p", "2", "--mode", mode},
        {"edges", "attrs", "checker", "keywords", "p", "mode"});
    ASSERT_TRUE(args.ok());
    const Status st = CmdQuery(*args);
    if (mode == "portfolio") {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(st.message().find("expected exact|anytime"),
                std::string::npos);
    } else {
      EXPECT_TRUE(st.ok()) << mode << ": " << st.ToString();
    }
  }
}

TEST_F(CliCommandTest, QueryRequiresKeywords) {
  const auto args =
      Args::Parse({"query", "--edges", edges_, "--attrs", attrs_},
                  {"edges", "attrs"});
  ASSERT_TRUE(args.ok());
  EXPECT_FALSE(CmdQuery(*args).ok());
}

// Query parameters are range-checked before they are narrowed: a value
// that would wrap (2^32 + 2 onto p = 2, 65537 onto k = 1, -1 onto 2^32 - 1)
// is refused, as on the wire, instead of running as another query.
TEST_F(CliCommandTest, QueryRefusesParametersThatWouldWrap) {
  const auto query = [&](const std::string& flag, const std::string& value) {
    const auto args = Args::Parse(
        {"query", "--edges", edges_, "--attrs", attrs_, "--checker", "bfs",
         "--keywords", "kw0,kw1,kw2", "--p", "2", "--k", "1", "--" + flag,
         value},
        {"edges", "attrs", "checker", "keywords", "p", "k", "n", "authors"});
    return args.ok() ? CmdQuery(*args) : args.status();
  };
  for (const auto& [flag, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"p", "4294967298"}, {"p", "-1"}, {"p", "0"}, {"p", "65"},
           {"k", "65537"}, {"k", "256"}, {"k", "-1"}, {"n", "-1"},
           {"n", "4097"}, {"authors", "4294967296"}, {"authors", "-1"},
           {"authors", "1.5"}}) {
    const Status st = query(flag, value);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << "--" << flag << " " << value << ": " << st.ToString();
  }
  EXPECT_TRUE(query("k", "255").ok());
  EXPECT_TRUE(query("n", "4096").ok());
  EXPECT_TRUE(query("authors", "0").ok());
  // An in-range id past the graph stays a vertex-range error.
  EXPECT_EQ(query("authors", "4294967294").code(), StatusCode::kOutOfRange);
}

TEST_F(CliCommandTest, QueryRefusesBitmapChecker) {
  const auto args = Args::Parse(
      {"query", "--edges", edges_, "--attrs", attrs_, "--checker", "bitmap",
       "--keywords", "kw0,kw1", "--p", "2", "--k", "2"},
      {"edges", "attrs", "checker", "keywords", "p", "k"});
  ASSERT_TRUE(args.ok());
  const Status st = CmdQuery(*args);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("expected bfs|nl|nlrnl"), std::string::npos)
      << st.ToString();
}

TEST_F(CliCommandTest, WorkloadAndLoadgenRefuseParametersThatWouldWrap) {
  for (const auto& [flag, value] :
       std::vector<std::pair<std::string, std::string>>{{"p", "4294967298"},
                                                        {"k", "65537"},
                                                        {"n", "-1"},
                                                        {"wq", "65"},
                                                        {"wq", "0"}}) {
    const auto workload = Args::Parse(
        {"workload", "--preset", "brightkite", "--scale", "0.02", "--queries",
         "2", "--checker", "bfs", "--" + flag, value},
        {"preset", "scale", "queries", "checker", "p", "k", "n", "wq"});
    ASSERT_TRUE(workload.ok());
    const Status wst = CmdWorkload(*workload);
    EXPECT_EQ(wst.code(), StatusCode::kInvalidArgument)
        << "workload --" << flag << " " << value << ": " << wst.ToString();

    // Refused before any connection is attempted.
    const auto loadgen = Args::Parse(
        {"loadgen", "--preset", "brightkite", "--scale", "0.02", "--port",
         "1", "--" + flag, value},
        {"preset", "scale", "port", "p", "k", "n", "wq"});
    ASSERT_TRUE(loadgen.ok());
    const Status lst = CmdLoadgen(*loadgen);
    EXPECT_EQ(lst.code(), StatusCode::kInvalidArgument)
        << "loadgen --" << flag << " " << value << ": " << lst.ToString();
    EXPECT_NE(lst.message().find("must be in"), std::string::npos)
        << lst.ToString();
  }
}

TEST_F(CliCommandTest, WorkloadRuns) {
  const auto args = Args::Parse(
      {"workload", "--preset", "brightkite", "--scale", "0.02", "--queries",
       "3", "--p", "3", "--checker", "bfs"},
      {"preset", "scale", "queries", "p", "checker"});
  ASSERT_TRUE(args.ok());
  EXPECT_TRUE(CmdWorkload(*args).ok());
}

TEST_F(CliCommandTest, WorkloadRunsThreaded) {
  const auto args = Args::Parse(
      {"workload", "--preset", "brightkite", "--scale", "0.02", "--queries",
       "6", "--p", "3", "--checker", "bfs", "--threads", "3"},
      {"preset", "scale", "queries", "p", "checker", "threads"});
  ASSERT_TRUE(args.ok());
  EXPECT_TRUE(CmdWorkload(*args).ok());
}

TEST_F(CliCommandTest, QueryJsonOutput) {
  const auto args = Args::Parse(
      {"query", "--edges", edges_, "--attrs", attrs_, "--checker", "bfs",
       "--keywords", "kw0,kw1,kw2", "--p", "2", "--k", "1", "--json"},
      {"edges", "attrs", "checker", "keywords", "p", "k", "json"});
  ASSERT_TRUE(args.ok());
  EXPECT_TRUE(CmdQuery(*args).ok());
}

TEST_F(CliCommandTest, QueryMetricsJsonSidecar) {
  const std::string metrics = TempPath("ktg_cli_metrics.json");
  const auto args = Args::Parse(
      {"query", "--edges", edges_, "--attrs", attrs_, "--checker", "bfs",
       "--keywords", "kw0,kw1,kw2", "--p", "2", "--k", "1", "--metrics-json",
       metrics, "--trace"},
      {"edges", "attrs", "checker", "keywords", "p", "k", "metrics-json",
       "trace"});
  ASSERT_TRUE(args.ok());
  ASSERT_TRUE(CmdQuery(*args).ok());

  std::ifstream in(metrics);
  ASSERT_TRUE(in.good()) << metrics;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  // Golden schema check: the ktg.metrics.v1 shape with engine counters,
  // per-phase histograms and per-checker detail stats all present.
  for (const char* needle :
       {"\"schema\":\"ktg.metrics.v1\"", "\"counters\":", "\"gauges\":",
        "\"histograms\":", "\"engine.queries\":1", "\"engine.candidates\":",
        "\"engine.nodes_expanded\":", "\"engine.prune.keyword\":",
        "\"engine.prune.kline\":", "\"engine.distance_checks\":",
        "\"checker.BFS.checks\":", "\"checker.BFS.farther\":",
        "\"engine.query_ms\":", "\"phase.candidate_gen_ms\":",
        "\"phase.bb_search_ms\":", "\"p50\":", "\"p99\":"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n" << json;
  }
  // Structural validation on top of the substring goldens.
  const auto problems = ktg::obs::CheckMetricsV1(json);
  EXPECT_TRUE(problems.empty()) << problems.front();
  std::remove(metrics.c_str());
}

TEST(CliMainTest, DispatchAndExitCodes) {
  EXPECT_EQ(RunMain({"help"}), 0);
  EXPECT_EQ(RunMain({}), 2);
  EXPECT_EQ(RunMain({"frobnicate"}), 2);
  EXPECT_EQ(RunMain({"stats", "--bogus-flag", "1"}), 2);
  EXPECT_EQ(RunMain({"stats", "--edges", "/nonexistent/zz.txt"}), 1);
  EXPECT_FALSE(UsageText().empty());
}

TEST(CliMainTest, RegistryCoversEveryCommand) {
  for (const char* name :
       {"generate", "stats", "build-index", "query", "workload", "serve",
        "loadgen"}) {
    const CommandSpec* spec = FindCommand(name);
    ASSERT_NE(spec, nullptr) << name;
    EXPECT_EQ(spec->name, name);
    EXPECT_NE(spec->fn, nullptr);
    EXPECT_FALSE(spec->flags.empty()) << name;
    // Every registered command appears in the usage text.
    EXPECT_NE(UsageText().find("  " + spec->name), std::string::npos) << name;
  }
  EXPECT_EQ(FindCommand("help"), nullptr);  // built-in, not a registry entry
  EXPECT_EQ(FindCommand("frobnicate"), nullptr);
}

TEST(CliMainTest, FlagsAreValidatedPerCommand) {
  // --keywords belongs to query, not stats: resolving the command first
  // and parsing against its own flag list must fail loudly.
  EXPECT_EQ(RunMain({"stats", "--keywords", "a,b"}), 2);
  // --port belongs to serve/loadgen, not workload.
  EXPECT_EQ(RunMain({"workload", "--port", "1"}), 2);
}

TEST(CliMainTest, LoadgenValidatesPortFlags) {
  // No port at all.
  EXPECT_EQ(RunMain({"loadgen"}), 1);
  // Mutually exclusive port sources.
  EXPECT_EQ(RunMain({"loadgen", "--port", "1", "--port-file", "/tmp/x"}), 1);
  // Out-of-range port.
  EXPECT_EQ(RunMain({"loadgen", "--port", "70000"}), 1);
}

}  // namespace
}  // namespace ktg::cli
