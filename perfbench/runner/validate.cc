#include "validate.h"

#include <algorithm>

#include "util/bits.h"
#include "util/rng.h"

namespace perfbench {

uint64_t AnswerDigest(const AnswerRecord& a) {
  uint64_t h = ktg::Mix64(a.query + 1) ^ ktg::Mix64(a.epoch + 0x51ED);
  for (const GroupRecord& g : a.groups) {
    h = ktg::Mix64(h ^ static_cast<uint64_t>(g.covered + 1));
    for (const ktg::VertexId v : g.members) h = ktg::Mix64(h ^ (v + 7));
    h = ktg::Mix64(h ^ g.mask);
  }
  return h;
}

EpochGraph::EpochGraph(const ktg::AttributedGraph& g)
    : adj_(g.num_vertices()),
      keywords_(g.num_vertices()),
      vocab_(&g.vocabulary()),
      stamp_(g.num_vertices(), 0) {
  for (ktg::VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.graph().Neighbors(v);
    adj_[v].assign(nbrs.begin(), nbrs.end());
    std::sort(adj_[v].begin(), adj_[v].end());
    const auto kws = g.Keywords(v);
    keywords_[v].assign(kws.begin(), kws.end());
  }
}

void EpochGraph::Apply(const ktg::MutationBatch& batch) {
  const auto n = static_cast<ktg::VertexId>(adj_.size());
  auto link = [&](ktg::VertexId a, ktg::VertexId b, bool add) {
    auto& list = adj_[a];
    const auto it = std::lower_bound(list.begin(), list.end(), b);
    const bool present = it != list.end() && *it == b;
    if (add && !present) {
      list.insert(it, b);
    } else if (!add && present) {
      list.erase(it);
    }
  };
  bool topology = false;
  for (const auto& [a, b] : batch.add_edges) {
    if (a >= n || b >= n || a == b) continue;
    link(a, b, true);
    link(b, a, true);
    topology = true;
  }
  for (const auto& [a, b] : batch.remove_edges) {
    if (a >= n || b >= n || a == b) continue;
    link(a, b, false);
    link(b, a, false);
    topology = true;
  }
  for (const auto& [v, term] : batch.add_keywords) {
    if (v >= n) continue;
    // Terms new to the epoch-0 vocabulary can match no pool query.
    const ktg::KeywordId kw = vocab_->Find(term);
    if (kw == ktg::kInvalidKeyword) continue;
    auto& kws = keywords_[v];
    if (std::find(kws.begin(), kws.end(), kw) == kws.end()) kws.push_back(kw);
  }
  if (topology) balls_.clear();
}

const std::vector<ktg::VertexId>& EpochGraph::Ball(ktg::VertexId v,
                                                   ktg::HopDistance k) {
  const uint64_t key = (static_cast<uint64_t>(v) << 8) | k;
  auto it = balls_.find(key);
  if (it != balls_.end()) return it->second;
  ++stamp_epoch_;
  std::vector<ktg::VertexId> ball;
  std::vector<ktg::VertexId> frontier{v};
  stamp_[v] = stamp_epoch_;
  for (ktg::HopDistance d = 0; d < k && !frontier.empty(); ++d) {
    std::vector<ktg::VertexId> next;
    for (const ktg::VertexId u : frontier) {
      for (const ktg::VertexId w : adj_[u]) {
        if (stamp_[w] == stamp_epoch_) continue;
        stamp_[w] = stamp_epoch_;
        next.push_back(w);
      }
    }
    ball.insert(ball.end(), next.begin(), next.end());
    frontier = std::move(next);
  }
  std::sort(ball.begin(), ball.end());
  return balls_.emplace(key, std::move(ball)).first->second;
}

std::string EpochGraph::Check(const ktg::KtgQuery& q,
                              const std::vector<GroupRecord>& groups) {
  if (groups.size() > q.top_n) return "more than N groups";
  const auto n = static_cast<ktg::VertexId>(adj_.size());
  int prev_covered = 1 << 30;
  std::vector<std::vector<ktg::VertexId>> seen_groups;
  for (const GroupRecord& g : groups) {
    if (g.members.size() != q.group_size) return "group size is not p";
    if (!std::is_sorted(g.members.begin(), g.members.end()) ||
        std::adjacent_find(g.members.begin(), g.members.end()) !=
            g.members.end()) {
      return "members not sorted and distinct";
    }
    if (g.members.back() >= n) return "member out of range";
    if (g.covered > prev_covered) return "groups not ordered by coverage";
    prev_covered = g.covered;
    if (std::find(seen_groups.begin(), seen_groups.end(), g.members) !=
        seen_groups.end()) {
      return "duplicate group";
    }
    seen_groups.push_back(g.members);
    ktg::CoverMask group_mask = 0;
    for (const ktg::VertexId v : g.members) {
      ktg::CoverMask m = 0;
      for (size_t i = 0; i < q.keywords.size(); ++i) {
        const auto& kws = keywords_[v];
        if (std::find(kws.begin(), kws.end(), q.keywords[i]) != kws.end()) {
          m |= ktg::CoverMask{1} << i;
        }
      }
      if (m == 0) return "member covers no query keyword";
      group_mask |= m;
      const auto& ball = Ball(v, q.tenuity);
      for (const ktg::VertexId u : g.members) {
        if (u != v && std::binary_search(ball.begin(), ball.end(), u)) {
          return "members within k hops";
        }
      }
    }
    if (ktg::PopCount(group_mask) != g.covered) return "coverage mismatch";
    if (g.has_mask && g.mask != group_mask) return "mask mismatch";
  }
  return "";
}

ktg::AttributedGraph EpochGraph::Materialize() const {
  const auto n = static_cast<ktg::VertexId>(adj_.size());
  ktg::GraphBuilder topology(n);
  for (ktg::VertexId v = 0; v < n; ++v) {
    for (const ktg::VertexId w : adj_[v]) {
      if (v < w) topology.AddEdge(v, w);
    }
  }
  ktg::AttributedGraphBuilder builder;
  builder.SetGraph(topology.Build());
  builder.mutable_vocabulary() = *vocab_;
  for (ktg::VertexId v = 0; v < n; ++v) {
    for (const ktg::KeywordId kw : keywords_[v]) builder.AddKeywordId(v, kw);
  }
  return builder.Build();
}

std::vector<int> Profile(const std::vector<GroupRecord>& groups) {
  std::vector<int> out;
  for (const GroupRecord& g : groups) out.push_back(g.covered);
  std::sort(out.rbegin(), out.rend());
  return out;
}

std::vector<int> Profile(const ktg::KtgResult& result) {
  std::vector<int> out;
  for (const ktg::Group& g : result.groups) out.push_back(g.covered());
  std::sort(out.rbegin(), out.rend());
  return out;
}

std::vector<GroupRecord> ToRecords(const ktg::KtgResult& result) {
  std::vector<GroupRecord> out;
  out.reserve(result.groups.size());
  for (const ktg::Group& g : result.groups) {
    out.push_back({g.members, g.covered(), true, g.mask});
  }
  return out;
}

}  // namespace perfbench
