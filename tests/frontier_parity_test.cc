// Copyright (c) 2026 The ktg Authors.
// Search-frontier parity: pins the exact engine's serial groups and search
// counters to a recorded table, so a change to how S_R is stored, ordered
// or filtered cannot move a single node, prune or distance check unseen.
//
// The grid: seeded Erdos-Renyi and Barabasi-Albert graphs at k = 1..3 and
// p = 3..6, one instance whose S_R spans three 64-bit words (|S_R| > 128)
// and one with |W_Q| = 64 (a full CoverMask); every sort order (QKC, VKC,
// VKC-DEG with either degree direction) under every k-line filter mode
// (the memo over NLRNL, per-pair checks, the memo over BFS, lazy
// feasibility), plus each order with the node ceiling and the residual
// clamp switched off. At
// threads=1 the groups (hashed in result order) and nodes_expanded,
// kline_filtered, keyword_prunes, ub_prunes and distance_checks must equal
// the table. A second test runs the root-parallel search at threads=4 and
// requires the serial coverage profile, brute force's where it is cheap.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/brute_force.h"
#include "core/ktg_engine.h"
#include "datagen/generators.h"
#include "datagen/keyword_assigner.h"
#include "datagen/query_gen.h"
#include "index/checker_factory.h"
#include "keywords/inverted_index.h"

namespace ktg {
namespace {

struct Instance {
  std::string name;
  AttributedGraph graph;
  KtgQuery query;
};

// A seeded ER or BA graph with Zipf keywords and one generated query.
Instance MakeInstance(const std::string& name, bool erdos_renyi, uint32_t n,
                      uint32_t keyword_count, uint32_t p, HopDistance k,
                      uint32_t top_n, uint64_t seed) {
  Rng rng(seed);
  Graph topo = erdos_renyi ? ErdosRenyi(n, 4.0 / n, rng)
                           : BarabasiAlbert(n, 2, rng);
  KeywordModel model;
  model.vocabulary_size = 16;
  model.min_per_vertex = 1;
  model.max_per_vertex = 3;
  model.empty_fraction = 0.2;
  AttributedGraph g = AssignKeywords(std::move(topo), model, rng);
  WorkloadOptions wopts;
  wopts.num_queries = 1;
  wopts.keyword_count = keyword_count;
  wopts.group_size = p;
  wopts.tenuity = k;
  wopts.top_n = top_n;
  KtgQuery q = GenerateWorkload(g, wopts, rng).front();
  return {name, std::move(g), std::move(q)};
}

// |W_Q| = 64: every vocabulary term is a query keyword, so the masks fill
// all 64 bits and vkc takes 65 values.
Instance FullMaskInstance() {
  Rng rng(0xF064);
  KeywordModel model;
  model.vocabulary_size = 64;
  model.min_per_vertex = 2;
  model.max_per_vertex = 9;
  model.zipf_exponent = 0.2;
  model.empty_fraction = 0.3;
  AttributedGraph g = AssignKeywords(BarabasiAlbert(90, 2, rng), model, rng);
  std::vector<std::string> terms;
  for (uint32_t r = 0; r < 64; ++r) terms.push_back(KeywordTerm(r));
  KtgQuery q = MakeQuery(g, terms, /*group_size=*/4, /*tenuity=*/2,
                         /*top_n=*/3);
  return {"full_mask", std::move(g), std::move(q)};
}

const std::vector<Instance>& Instances() {
  static const std::vector<Instance>* instances = [] {
    auto* v = new std::vector<Instance>;
    v->push_back(MakeInstance("er_k1_p3", true, 120, 8, 3, 1, 8, 0xF001));
    v->push_back(MakeInstance("ba_k2_p4", false, 120, 8, 4, 2, 6, 0xF002));
    v->push_back(MakeInstance("er_k3_p5", true, 140, 8, 5, 3, 6, 0xF003));
    v->push_back(MakeInstance("ba_k1_p6", false, 100, 9, 6, 1, 8, 0xF004));
    v->push_back(MakeInstance("er_k2_p6", true, 120, 8, 6, 2, 5, 0xF005));
    v->push_back(MakeInstance("ba_k3_p3", false, 160, 7, 3, 3, 8, 0xF006));
    // Three words of S_R: a sparse graph where nearly every vertex covers
    // a query keyword.
    v->push_back(MakeInstance("wide_sr", true, 200, 10, 3, 1, 2, 0xF007));
    v->push_back(FullMaskInstance());
    return v;
  }();
  return *instances;
}

enum class Filter { kMemo, kPerPair, kBfsMemo, kLazy };

struct Config {
  std::string name;
  SortStrategy sort;
  bool degree_ascending;
  Filter filter;
  bool ceiling;
  bool residual;
};

std::vector<Config> Configs() {
  struct Order {
    const char* name;
    SortStrategy sort;
    bool ascending;
  };
  const Order orders[] = {
      {"QKC", SortStrategy::kQkc, true},
      {"VKC", SortStrategy::kVkc, true},
      {"DEG+", SortStrategy::kVkcDeg, true},
      {"DEG-", SortStrategy::kVkcDeg, false},
  };
  const std::pair<const char*, Filter> filters[] = {
      {"memo", Filter::kMemo},
      {"pair", Filter::kPerPair},
      {"bfs", Filter::kBfsMemo},
      {"lazy", Filter::kLazy},
  };
  std::vector<Config> out;
  for (const Order& o : orders) {
    for (const auto& [fname, filter] : filters) {
      out.push_back({std::string(o.name) + "/" + fname, o.sort, o.ascending,
                     filter, true, true});
    }
    out.push_back({std::string(o.name) + "/memo/-ceil", o.sort, o.ascending,
                   Filter::kMemo, false, true});
    out.push_back({std::string(o.name) + "/memo/-res", o.sort, o.ascending,
                   Filter::kMemo, true, false});
    out.push_back({std::string(o.name) + "/pair/-both", o.sort, o.ascending,
                   Filter::kPerPair, false, false});
  }
  return out;
}

std::unique_ptr<DistanceChecker> MakeConfigChecker(const Config& c,
                                                   const Instance& inst) {
  return MakeChecker(c.filter == Filter::kBfsMemo ? CheckerKind::kBfs
                                                  : CheckerKind::kNlrnl,
                     inst.graph.graph());
}

EngineOptions MakeOptions(const Config& c, uint32_t threads) {
  EngineOptions opts;
  opts.sort = c.sort;
  opts.degree_ascending = c.degree_ascending;
  opts.eager_kline_filtering = c.filter != Filter::kLazy;
  opts.bulk_filtering = c.filter != Filter::kPerPair;
  opts.ceiling_prune = c.ceiling;
  opts.residual_bound = c.residual;
  opts.num_threads = threads;
  return opts;
}

// FNV-1a over the groups in result order: members, then mask.
uint64_t HashGroups(const std::vector<Group>& groups) {
  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  for (const Group& g : groups) {
    mix(g.members.size());
    for (const VertexId m : g.members) mix(m);
    mix(g.mask);
  }
  return h;
}

struct Pinned {
  uint64_t groups;
  uint64_t nodes;
  uint64_t kline;
  uint64_t keyword_prunes;
  uint64_t ub_prunes;
  uint64_t checks;
};

// Recorded from the engine whose S_R was a re-sorted vector of candidates;
// the memo rows' distance_checks were re-recorded when the memo began to
// fill k-line rows from the graph (core/conflict_rows.h), a fill counting
// as one check. The bfs rows were recorded from a BFS ball filter; when
// BFS moved to the memo only their distance_checks were re-recorded. One
// row per run, instances in Instances() order and, within each, the
// configs in Configs() order: per sort order QKC, VKC, DEG+, DEG-, the
// filters memo, pair, bfs, lazy, then memo/-ceil, memo/-res, pair/-both.
// On a mismatch the test names the run and prints the row it measured.
constexpr Pinned kPinned[] = {
    // er_k1_p3
    {0x9c75e6f232ea81c4, 337, 586, 122, 7, 157},
    {0x9c75e6f232ea81c4, 337, 586, 122, 7, 16531},
    {0x9c75e6f232ea81c4, 337, 586, 122, 7, 157},
    {0x9c75e6f232ea81c4, 390, 0, 148, 7, 600},
    {0x9c75e6f232ea81c4, 337, 586, 122, 7, 157},
    {0x9c75e6f232ea81c4, 532, 705, 227, 0, 162},
    {0x9c75e6f232ea81c4, 532, 705, 227, 0, 20202},
    {0x6a2cac85c5e50f41, 18, 44, 9, 0, 93},
    {0x6a2cac85c5e50f41, 18, 44, 9, 0, 1277},
    {0x6a2cac85c5e50f41, 18, 44, 9, 0, 93},
    {0x6a2cac85c5e50f41, 18, 0, 9, 0, 22},
    {0x6a2cac85c5e50f41, 18, 44, 9, 0, 93},
    {0x6a2cac85c5e50f41, 18, 44, 9, 0, 93},
    {0x6a2cac85c5e50f41, 18, 44, 9, 0, 1277},
    {0xb049e64d41f1c8d7, 18, 43, 9, 0, 92},
    {0xb049e64d41f1c8d7, 18, 43, 9, 0, 1282},
    {0xb049e64d41f1c8d7, 18, 43, 9, 0, 92},
    {0xb049e64d41f1c8d7, 18, 0, 9, 0, 22},
    {0xb049e64d41f1c8d7, 18, 43, 9, 0, 92},
    {0xb049e64d41f1c8d7, 18, 43, 9, 0, 92},
    {0xb049e64d41f1c8d7, 18, 43, 9, 0, 1282},
    {0x9bc69f6fd5cac51a, 19, 48, 9, 0, 94},
    {0x9bc69f6fd5cac51a, 19, 48, 9, 0, 1327},
    {0x9bc69f6fd5cac51a, 19, 48, 9, 0, 94},
    {0x9bc69f6fd5cac51a, 19, 0, 9, 0, 24},
    {0x9bc69f6fd5cac51a, 19, 48, 9, 0, 94},
    {0x9bc69f6fd5cac51a, 19, 48, 9, 0, 94},
    {0x9bc69f6fd5cac51a, 19, 48, 9, 0, 1327},
    // ba_k2_p4
    {0x93296e77e2ced470, 770, 4259, 636, 33, 125},
    {0x93296e77e2ced470, 770, 4259, 636, 33, 22143},
    {0x93296e77e2ced470, 770, 4259, 636, 33, 125},
    {0x93296e77e2ced470, 1028, 0, 873, 46, 2408},
    {0x93296e77e2ced470, 770, 4259, 635, 34, 125},
    {0x93296e77e2ced470, 1276, 4759, 1105, 0, 131},
    {0x93296e77e2ced470, 1284, 4763, 1112, 0, 27466},
    {0xe2755f4389e461c0, 89, 729, 81, 0, 95},
    {0xe2755f4389e461c0, 89, 729, 81, 0, 3633},
    {0xe2755f4389e461c0, 89, 729, 81, 0, 95},
    {0xe2755f4389e461c0, 98, 0, 90, 0, 192},
    {0xe2755f4389e461c0, 89, 729, 80, 1, 95},
    {0xe2755f4389e461c0, 89, 729, 81, 0, 95},
    {0xe2755f4389e461c0, 90, 729, 82, 0, 3642},
    {0xc15464ee0b3f3b8f, 101, 1033, 95, 0, 93},
    {0xc15464ee0b3f3b8f, 101, 1033, 95, 0, 4674},
    {0xc15464ee0b3f3b8f, 101, 1033, 95, 0, 93},
    {0xc15464ee0b3f3b8f, 127, 0, 121, 0, 189},
    {0xc15464ee0b3f3b8f, 101, 1033, 94, 1, 93},
    {0xc15464ee0b3f3b8f, 101, 1033, 95, 0, 93},
    {0xc15464ee0b3f3b8f, 102, 1053, 96, 0, 4720},
    {0xe2755f4389e461c0, 89, 661, 81, 0, 94},
    {0xe2755f4389e461c0, 89, 661, 81, 0, 3568},
    {0xe2755f4389e461c0, 89, 661, 81, 0, 94},
    {0xe2755f4389e461c0, 98, 0, 90, 0, 190},
    {0xe2755f4389e461c0, 89, 661, 80, 1, 94},
    {0xe2755f4389e461c0, 89, 661, 81, 0, 94},
    {0xe2755f4389e461c0, 90, 661, 82, 0, 3577},
    // er_k3_p5
    {0xb7b6a4aebf17da9e, 26, 132, 7, 4, 103},
    {0xb7b6a4aebf17da9e, 26, 132, 7, 4, 306},
    {0xb7b6a4aebf17da9e, 26, 132, 7, 4, 103},
    {0xb7b6a4aebf17da9e, 50, 0, 14, 6, 620},
    {0xb7b6a4aebf17da9e, 26, 132, 2, 9, 103},
    {0xb7b6a4aebf17da9e, 53, 164, 18, 0, 106},
    {0xb7b6a4aebf17da9e, 865, 8354, 778, 0, 20304},
    {0xf210f2d8426cdc8b, 11, 81, 5, 0, 97},
    {0xf210f2d8426cdc8b, 11, 81, 5, 0, 157},
    {0xf210f2d8426cdc8b, 11, 81, 5, 0, 97},
    {0xf210f2d8426cdc8b, 11, 0, 5, 0, 122},
    {0xf210f2d8426cdc8b, 11, 81, 2, 3, 97},
    {0xf210f2d8426cdc8b, 11, 81, 5, 0, 97},
    {0xf210f2d8426cdc8b, 82, 1847, 76, 0, 3882},
    {0xbc5e9a27a3c5e116, 28, 209, 17, 1, 102},
    {0xbc5e9a27a3c5e116, 28, 209, 17, 1, 537},
    {0xbc5e9a27a3c5e116, 28, 209, 17, 1, 102},
    {0xbc5e9a27a3c5e116, 33, 0, 18, 5, 383},
    {0xbc5e9a27a3c5e116, 28, 209, 15, 3, 102},
    {0xbc5e9a27a3c5e116, 29, 218, 19, 0, 102},
    {0xbc5e9a27a3c5e116, 103, 2242, 93, 0, 4741},
    {0x8bbae9d93bc69284, 11, 80, 5, 0, 97},
    {0x8bbae9d93bc69284, 11, 80, 5, 0, 153},
    {0x8bbae9d93bc69284, 11, 80, 5, 0, 97},
    {0x8bbae9d93bc69284, 11, 0, 5, 0, 125},
    {0x8bbae9d93bc69284, 11, 80, 2, 3, 97},
    {0x8bbae9d93bc69284, 11, 80, 5, 0, 97},
    {0x8bbae9d93bc69284, 73, 1440, 67, 0, 3083},
    // ba_k1_p6
    {0x03e49239d73dce9d, 204, 164, 40, 6, 112},
    {0x03e49239d73dce9d, 204, 164, 40, 6, 6049},
    {0x03e49239d73dce9d, 204, 164, 40, 6, 112},
    {0x03e49239d73dce9d, 243, 0, 40, 6, 1335},
    {0x03e49239d73dce9d, 204, 164, 34, 12, 112},
    {0x03e49239d73dce9d, 307, 194, 57, 0, 116},
    {0x03e49239d73dce9d, 12017, 6186, 11344, 0, 256981},
    {0x073350c6f45130ad, 14, 24, 6, 0, 74},
    {0x073350c6f45130ad, 14, 24, 6, 0, 630},
    {0x073350c6f45130ad, 14, 24, 6, 0, 74},
    {0x073350c6f45130ad, 14, 0, 6, 0, 58},
    {0x073350c6f45130ad, 14, 24, 2, 4, 74},
    {0x073350c6f45130ad, 14, 24, 6, 0, 74},
    {0x073350c6f45130ad, 442, 516, 434, 0, 20060},
    {0x3ae81fdbe9ba2490, 14, 10, 6, 0, 74},
    {0x3ae81fdbe9ba2490, 14, 10, 6, 0, 668},
    {0x3ae81fdbe9ba2490, 14, 10, 6, 0, 74},
    {0x3ae81fdbe9ba2490, 14, 0, 6, 0, 53},
    {0x3ae81fdbe9ba2490, 14, 10, 1, 5, 74},
    {0x3ae81fdbe9ba2490, 14, 10, 6, 0, 74},
    {0x3ae81fdbe9ba2490, 442, 696, 434, 0, 20489},
    {0x86ea4006888f9399, 14, 30, 6, 0, 74},
    {0x86ea4006888f9399, 14, 30, 6, 0, 611},
    {0x86ea4006888f9399, 14, 30, 6, 0, 74},
    {0x86ea4006888f9399, 14, 0, 6, 0, 65},
    {0x86ea4006888f9399, 14, 30, 1, 5, 74},
    {0x86ea4006888f9399, 14, 30, 6, 0, 74},
    {0x86ea4006888f9399, 438, 479, 430, 0, 20039},
    // er_k2_p6
    {0xd21f7d290eca520c, 144, 295, 6, 3, 113},
    {0xd21f7d290eca520c, 144, 295, 6, 3, 2243},
    {0xd21f7d290eca520c, 144, 295, 6, 3, 113},
    {0xd21f7d290eca520c, 144, 0, 6, 4, 1240},
    {0xd21f7d290eca520c, 144, 295, 0, 9, 113},
    {0xd21f7d290eca520c, 147, 295, 6, 0, 113},
    {0xd21f7d290eca520c, 59010, 125871, 55834, 0, 812630},
    {0xa25585b343efbc16, 11, 58, 6, 0, 86},
    {0xa25585b343efbc16, 11, 58, 6, 0, 357},
    {0xa25585b343efbc16, 11, 58, 6, 0, 86},
    {0xa25585b343efbc16, 11, 0, 6, 0, 57},
    {0xa25585b343efbc16, 11, 58, 3, 3, 86},
    {0xa25585b343efbc16, 11, 58, 6, 0, 86},
    {0xa25585b343efbc16, 4610, 17263, 4605, 0, 129229},
    {0x3afd21a753e55018, 11, 40, 6, 0, 86},
    {0x3afd21a753e55018, 11, 40, 6, 0, 527},
    {0x3afd21a753e55018, 11, 40, 6, 0, 86},
    {0x3afd21a753e55018, 11, 0, 6, 0, 35},
    {0x3afd21a753e55018, 11, 40, 2, 4, 86},
    {0x3afd21a753e55018, 11, 40, 6, 0, 86},
    {0x3afd21a753e55018, 5651, 35446, 5646, 0, 175624},
    {0x0e8c7542e673d5a9, 11, 63, 6, 0, 86},
    {0x0e8c7542e673d5a9, 11, 63, 6, 0, 300},
    {0x0e8c7542e673d5a9, 11, 63, 6, 0, 86},
    {0x0e8c7542e673d5a9, 11, 0, 6, 0, 126},
    {0x0e8c7542e673d5a9, 11, 63, 2, 4, 86},
    {0x0e8c7542e673d5a9, 11, 63, 6, 0, 86},
    {0x0e8c7542e673d5a9, 4730, 14447, 4725, 0, 125129},
    // ba_k3_p3
    {0x8de68d7743abbdf8, 102, 1618, 54, 9, 150},
    {0x8de68d7743abbdf8, 102, 1618, 54, 9, 3402},
    {0x8de68d7743abbdf8, 102, 1618, 54, 9, 150},
    {0x8de68d7743abbdf8, 144, 0, 78, 10, 841},
    {0x8de68d7743abbdf8, 102, 1618, 53, 10, 150},
    {0x8de68d7743abbdf8, 260, 3680, 186, 0, 203},
    {0x8de68d7743abbdf8, 263, 3680, 185, 0, 7171},
    {0x6051b11899de07f4, 26, 348, 10, 1, 119},
    {0x6051b11899de07f4, 26, 348, 10, 1, 709},
    {0x6051b11899de07f4, 26, 348, 10, 1, 119},
    {0x6051b11899de07f4, 30, 0, 15, 0, 142},
    {0x6051b11899de07f4, 26, 348, 10, 1, 119},
    {0x6051b11899de07f4, 29, 371, 14, 0, 120},
    {0x6051b11899de07f4, 29, 371, 14, 0, 793},
    {0x633c46402bf00e70, 17, 316, 7, 1, 112},
    {0x633c46402bf00e70, 17, 316, 7, 1, 655},
    {0x633c46402bf00e70, 17, 316, 7, 1, 112},
    {0x633c46402bf00e70, 23, 0, 14, 0, 65},
    {0x633c46402bf00e70, 17, 316, 7, 1, 112},
    {0x633c46402bf00e70, 22, 366, 13, 0, 114},
    {0x633c46402bf00e70, 22, 366, 13, 0, 800},
    {0x6051b11899de07f4, 27, 370, 11, 1, 120},
    {0x6051b11899de07f4, 27, 370, 11, 1, 738},
    {0x6051b11899de07f4, 27, 370, 11, 1, 120},
    {0x6051b11899de07f4, 30, 0, 15, 0, 147},
    {0x6051b11899de07f4, 27, 370, 11, 1, 120},
    {0x6051b11899de07f4, 29, 379, 14, 0, 120},
    {0x6051b11899de07f4, 29, 379, 14, 0, 793},
    // wide_sr
    {0x40b52d37e3063b08, 801, 1391, 579, 8, 260},
    {0x40b52d37e3063b08, 801, 1391, 579, 8, 67138},
    {0x40b52d37e3063b08, 801, 1391, 579, 8, 260},
    {0x40b52d37e3063b08, 815, 0, 593, 8, 950},
    {0x40b52d37e3063b08, 801, 1391, 579, 8, 260},
    {0x40b52d37e3063b08, 1071, 1477, 797, 0, 283},
    {0x40b52d37e3063b08, 1071, 1477, 797, 0, 72025},
    {0x40b52d37e3063b08, 30, 79, 28, 0, 163},
    {0x40b52d37e3063b08, 30, 79, 28, 0, 3848},
    {0x40b52d37e3063b08, 30, 79, 28, 0, 163},
    {0x40b52d37e3063b08, 30, 0, 28, 0, 11},
    {0x40b52d37e3063b08, 30, 79, 28, 0, 163},
    {0x40b52d37e3063b08, 30, 79, 28, 0, 163},
    {0x40b52d37e3063b08, 30, 79, 28, 0, 3848},
    {0x40b52d37e3063b08, 36, 95, 32, 0, 163},
    {0x40b52d37e3063b08, 36, 95, 32, 0, 4661},
    {0x40b52d37e3063b08, 36, 95, 32, 0, 163},
    {0x40b52d37e3063b08, 36, 0, 32, 0, 19},
    {0x40b52d37e3063b08, 36, 95, 32, 0, 163},
    {0x40b52d37e3063b08, 36, 95, 32, 0, 163},
    {0x40b52d37e3063b08, 36, 95, 32, 0, 4661},
    {0x4b360f26d316af83, 30, 89, 28, 0, 163},
    {0x4b360f26d316af83, 30, 89, 28, 0, 3833},
    {0x4b360f26d316af83, 30, 89, 28, 0, 163},
    {0x4b360f26d316af83, 31, 0, 29, 0, 12},
    {0x4b360f26d316af83, 30, 89, 28, 0, 163},
    {0x4b360f26d316af83, 30, 89, 28, 0, 163},
    {0x4b360f26d316af83, 30, 89, 28, 0, 3833},
    // full_mask
    {0x9da015d5c31533a1, 558, 3422, 421, 24, 119},
    {0x9da015d5c31533a1, 558, 3422, 421, 24, 13301},
    {0x9da015d5c31533a1, 558, 3422, 421, 24, 119},
    {0x9da015d5c31533a1, 833, 0, 556, 35, 2680},
    {0x9da015d5c31533a1, 558, 3422, 421, 24, 119},
    {0x9da015d5c31533a1, 698, 3508, 539, 0, 125},
    {0x9da015d5c31533a1, 698, 3508, 539, 0, 13945},
    {0x9da015d5c31533a1, 45, 476, 36, 0, 80},
    {0x9da015d5c31533a1, 45, 476, 36, 0, 1547},
    {0x9da015d5c31533a1, 45, 476, 36, 0, 80},
    {0x9da015d5c31533a1, 48, 0, 39, 0, 153},
    {0x9da015d5c31533a1, 45, 476, 36, 0, 80},
    {0x9da015d5c31533a1, 45, 476, 36, 0, 80},
    {0x9da015d5c31533a1, 45, 476, 36, 0, 1547},
    {0xfc4e6cbaba5f67cc, 40, 537, 36, 0, 77},
    {0xfc4e6cbaba5f67cc, 40, 537, 36, 0, 1829},
    {0xfc4e6cbaba5f67cc, 40, 537, 36, 0, 77},
    {0xfc4e6cbaba5f67cc, 44, 0, 40, 0, 118},
    {0xfc4e6cbaba5f67cc, 40, 537, 36, 0, 77},
    {0xfc4e6cbaba5f67cc, 40, 537, 36, 0, 77},
    {0xfc4e6cbaba5f67cc, 40, 537, 36, 0, 1829},
    {0x9f8ab6c1c633ebab, 45, 474, 36, 0, 80},
    {0x9f8ab6c1c633ebab, 45, 474, 36, 0, 1554},
    {0x9f8ab6c1c633ebab, 45, 474, 36, 0, 80},
    {0x9f8ab6c1c633ebab, 46, 0, 37, 0, 127},
    {0x9f8ab6c1c633ebab, 45, 474, 36, 0, 80},
    {0x9f8ab6c1c633ebab, 45, 474, 36, 0, 80},
    {0x9f8ab6c1c633ebab, 45, 474, 36, 0, 1554},
};

std::string Row(uint64_t groups, const SearchStats& s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "    {0x%016" PRIx64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 "},",
                groups, s.nodes_expanded, s.kline_filtered, s.keyword_prunes,
                s.ub_prunes, s.distance_checks);
  return buf;
}

TEST(FrontierParityTest, SerialGroupsAndCountersMatchTable) {
  const std::vector<Config> configs = Configs();
  ASSERT_EQ(std::size(kPinned), Instances().size() * configs.size());
  const Pinned* pinned = kPinned;
  for (const Instance& inst : Instances()) {
    const InvertedIndex index(inst.graph);
    for (const Config& config : configs) {
      auto checker = MakeConfigChecker(config, inst);
      const auto got = RunKtg(inst.graph, index, *checker, inst.query,
                              MakeOptions(config, 1));
      ASSERT_TRUE(got.ok());
      if (inst.name == "wide_sr") {
        ASSERT_GT(got->stats.candidates, 128u);
      }
      if (inst.name == "full_mask") {
        ASSERT_EQ(inst.query.num_keywords(), 64u);
      }
      const uint64_t groups = HashGroups(got->groups);
      const SearchStats& s = got->stats;
      EXPECT_TRUE(groups == pinned->groups &&
                  s.nodes_expanded == pinned->nodes &&
                  s.kline_filtered == pinned->kline &&
                  s.keyword_prunes == pinned->keyword_prunes &&
                  s.ub_prunes == pinned->ub_prunes &&
                  s.distance_checks == pinned->checks)
          << inst.name << " " << config.name << " measured:\n"
          << Row(groups, s);
      ++pinned;
    }
  }
}

// The root-parallel search at threads=4 on the same grid must return the
// serial coverage profile under every order and filter mode. Up to p = 5
// that profile is brute force's; at p = 6 enumerating C(|S_R|, 6) takes
// seconds, so there it is the serial memo run's, which the table pins.
TEST(FrontierParityTest, FourThreadsKeepTheCoverageProfile) {
  const auto coverage_of = [](const std::vector<Group>& groups) {
    std::vector<int> out;
    for (const Group& g : groups) out.push_back(g.covered());
    return out;
  };
  for (const Instance& inst : Instances()) {
    const InvertedIndex index(inst.graph);
    auto oracle_checker =
        MakeChecker(CheckerKind::kNlrnl, inst.graph.graph());
    const auto truth =
        inst.query.group_size <= 5
            ? BruteForceKtg(inst.graph, index, *oracle_checker, inst.query)
            : RunKtg(inst.graph, index, *oracle_checker, inst.query);
    ASSERT_TRUE(truth.ok());
    const std::vector<int> expected = coverage_of(truth->groups);
    for (const Config& config : Configs()) {
      auto checker = MakeConfigChecker(config, inst);
      const auto got = RunKtg(inst.graph, index, *checker, inst.query,
                              MakeOptions(config, 4));
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(coverage_of(got->groups), expected)
          << inst.name << " " << config.name;
    }
  }
}

}  // namespace
}  // namespace ktg
