// Copyright (c) 2026 The ktg Authors.

#include "core/tagq.h"

#include <algorithm>

#include "keywords/inverted_index.h"
#include "util/timer.h"

namespace ktg {
namespace {

struct TagqCandidate {
  VertexId vertex;
  CoverMask mask;
  int qkc;  // |k_v ∩ W_Q|
  uint32_t degree;
};

// Bounded best-N collection on the additive objective.
class TagqCollector {
 public:
  explicit TagqCollector(uint32_t n) : n_(n) {}

  bool full() const { return groups_.size() >= n_; }
  int threshold() const { return full() ? worst_ : -1; }

  void Offer(TagqGroup group) {
    if (!full()) {
      groups_.push_back(std::move(group));
      Recompute();
      return;
    }
    if (group.total_covered <= worst_) return;
    size_t evict = 0;
    for (size_t i = 1; i < groups_.size(); ++i) {
      if (groups_[i].total_covered < groups_[evict].total_covered) evict = i;
    }
    groups_[evict] = std::move(group);
    Recompute();
  }

  std::vector<TagqGroup> Take() {
    std::stable_sort(groups_.begin(), groups_.end(),
                     [](const TagqGroup& a, const TagqGroup& b) {
                       return a.total_covered > b.total_covered;
                     });
    return std::move(groups_);
  }

 private:
  void Recompute() {
    worst_ = full() ? groups_.front().total_covered : -1;
    for (const auto& g : groups_) worst_ = std::min(worst_, g.total_covered);
  }

  uint32_t n_;
  int worst_ = -1;
  std::vector<TagqGroup> groups_;
};

struct TagqSearch {
  const KtgQuery* query;
  DistanceChecker* checker;
  TagqCollector* collector;
  SearchStats stats;
  uint64_t max_nodes = 0;
  bool stop = false;
  bool complete = true;

  std::vector<VertexId> members;
  std::vector<int> member_qkc;
  CoverMask covered = 0;
  int total = 0;

  void Recurse(const std::vector<TagqCandidate>& sr) {
    if (stop) return;
    ++stats.nodes_expanded;
    if (max_nodes != 0 && stats.nodes_expanded > max_nodes) {
      stop = true;
      complete = false;
      return;
    }
    const uint32_t p = query->group_size;
    if (members.size() == p) {
      ++stats.groups_completed;
      TagqGroup g;
      g.members = members;
      std::sort(g.members.begin(), g.members.end());
      g.total_covered = total;
      g.union_mask = covered;
      for (const int q : member_qkc) {
        if (q == 0) ++g.zero_coverage_members;
      }
      collector->Offer(std::move(g));
      return;
    }
    const uint32_t need = p - static_cast<uint32_t>(members.size());
    if (sr.size() < need) return;

    // Additive bound: current total plus the `need` best remaining scores
    // (sr is qkc-descending, so those are the first entries).
    int optimistic = total;
    for (uint32_t i = 0; i < need; ++i) optimistic += sr[i].qkc;
    if (collector->full() && optimistic <= collector->threshold()) {
      ++stats.keyword_prunes;
      return;
    }

    for (size_t i = 0; i + need <= sr.size(); ++i) {
      if (stop) return;
      const TagqCandidate& v = sr[i];
      // Per-child additive bound; sr is sorted, later children bound lower.
      if (collector->full()) {
        int bound = total + v.qkc;
        const size_t end = std::min(sr.size(), i + need);
        for (size_t j = i + 1; j < end; ++j) bound += sr[j].qkc;
        if (bound <= collector->threshold()) {
          ++stats.keyword_prunes;
          return;
        }
      }

      std::vector<TagqCandidate> child;
      child.reserve(sr.size() - i - 1);
      for (size_t j = i + 1; j < sr.size(); ++j) {
        if (!checker->IsFartherThan(sr[j].vertex, v.vertex, query->tenuity,
                                    &stats.distance_checks)) {
          ++stats.kline_filtered;
          continue;
        }
        child.push_back(sr[j]);
      }
      // The additive objective never changes a candidate's score, so the
      // (filtered) order stays valid — no re-sort needed.
      members.push_back(v.vertex);
      member_qkc.push_back(v.qkc);
      const CoverMask prev_covered = covered;
      covered |= v.mask;
      total += v.qkc;
      Recurse(child);
      total -= v.qkc;
      covered = prev_covered;
      members.pop_back();
      member_qkc.pop_back();
    }
  }
};

}  // namespace

Result<TagqResult> RunTagq(const AttributedGraph& graph,
                           DistanceChecker& checker, const KtgQuery& query,
                           TagqOptions options) {
  KTG_RETURN_IF_ERROR(ValidateQuery(query, graph));
  Stopwatch watch;

  // TAGQ considers every vertex, not just keyword-covering ones.
  std::vector<TagqCandidate> sr;
  sr.reserve(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    TagqCandidate c;
    c.vertex = v;
    c.mask = CoverMaskOf(graph, v, query.keywords);
    c.qkc = PopCount(c.mask);
    c.degree = graph.graph().Degree(v);
    sr.push_back(c);
  }
  std::sort(sr.begin(), sr.end(),
            [](const TagqCandidate& a, const TagqCandidate& b) {
              if (a.qkc != b.qkc) return a.qkc > b.qkc;
              if (a.degree != b.degree) return a.degree < b.degree;
              return a.vertex < b.vertex;
            });

  TagqCollector collector(query.top_n);
  TagqSearch search;
  search.query = &query;
  search.checker = &checker;
  search.collector = &collector;
  search.max_nodes = options.max_nodes;
  search.stats.candidates = sr.size();
  search.Recurse(sr);

  TagqResult result;
  result.groups = collector.Take();
  result.query_keyword_count = query.num_keywords();
  result.stats = search.stats;
  result.stats.elapsed_ms = watch.ElapsedMillis();
  result.stats.cpu_ms = result.stats.elapsed_ms;  // single-threaded
  return result;
}

}  // namespace ktg
