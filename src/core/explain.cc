// Copyright (c) 2026 The ktg Authors.

#include "core/explain.h"

#include <sstream>

#include "graph/bfs.h"
#include "keywords/inverted_index.h"

namespace ktg {

GroupExplanation ExplainGroup(const AttributedGraph& graph,
                              const KtgQuery& query, const Group& group) {
  GroupExplanation out;

  auto term_of = [&](size_t bit) -> std::string {
    const KeywordId kw = query.keywords[bit];
    return kw == kInvalidKeyword ? ("<unknown #" + std::to_string(bit) + ">")
                                 : graph.vocabulary().Term(kw);
  };

  // Member coverage, recomputed from the raw keyword lists.
  CoverMask joint = 0;
  for (const VertexId v : group.members) {
    MemberEvidence ev;
    ev.vertex = v;
    if (v < graph.num_vertices()) {
      const CoverMask mask = CoverMaskOf(graph, v, query.keywords);
      joint |= mask;
      for (size_t bit = 0; bit < query.keywords.size(); ++bit) {
        if (mask & (CoverMask{1} << bit)) {
          ev.covered_terms.push_back(term_of(bit));
        }
      }
      ev.covered_count = static_cast<int>(ev.covered_terms.size());
    }
    out.members.push_back(std::move(ev));
  }
  out.covered_count = PopCount(joint);
  for (size_t bit = 0; bit < query.keywords.size(); ++bit) {
    if (joint & (CoverMask{1} << bit)) {
      out.covered_terms.push_back(term_of(bit));
    } else {
      out.missing_terms.push_back(term_of(bit));
    }
  }

  // Pairwise distances, recomputed by plain BFS.
  if (graph.num_vertices() > 0) {
    BoundedBfs bfs(graph.graph());
    for (size_t i = 0; i < group.members.size(); ++i) {
      for (size_t j = i + 1; j < group.members.size(); ++j) {
        PairEvidence pe;
        pe.u = group.members[i];
        pe.v = group.members[j];
        if (pe.u < graph.num_vertices() && pe.v < graph.num_vertices()) {
          pe.distance = bfs.Distance(pe.u, pe.v, kUnreachable - 1);
          pe.tenuous = pe.distance > query.tenuity;
        }
        out.pairs.push_back(pe);
      }
    }
  }

  // Verdict.
  if (group.members.size() != query.group_size) {
    out.violations.push_back(
        "group has " + std::to_string(group.members.size()) +
        " members, query requires " + std::to_string(query.group_size));
  }
  for (const auto& ev : out.members) {
    if (ev.vertex >= graph.num_vertices()) {
      out.violations.push_back("member " + std::to_string(ev.vertex) +
                               " does not exist in the graph");
    } else if (ev.covered_count == 0) {
      out.violations.push_back("member " + std::to_string(ev.vertex) +
                               " covers no query keyword");
    }
  }
  for (const auto& pe : out.pairs) {
    if (!pe.tenuous) {
      out.violations.push_back(
          "pair (" + std::to_string(pe.u) + ", " + std::to_string(pe.v) +
          ") is only " + std::to_string(pe.distance) + " hop(s) apart (k=" +
          std::to_string(query.tenuity) + ")");
    }
  }
  out.valid = out.violations.empty();
  return out;
}

std::string GroupExplanation::ToString() const {
  std::ostringstream os;
  os << (valid ? "VALID" : "INVALID") << " group covering " << covered_count
     << "/" << (covered_terms.size() + missing_terms.size())
     << " query keywords\n";
  for (const auto& ev : members) {
    os << "  member u" << ev.vertex << " covers " << ev.covered_count << ":";
    for (const auto& t : ev.covered_terms) os << ' ' << t;
    os << '\n';
  }
  os << "  pairwise hops:";
  for (const auto& pe : pairs) {
    os << "  (" << pe.u << "," << pe.v << ")=";
    if (pe.distance == kUnreachable) {
      os << "inf";
    } else {
      os << pe.distance;
    }
  }
  os << '\n';
  if (!missing_terms.empty()) {
    os << "  missing:";
    for (const auto& t : missing_terms) os << ' ' << t;
    os << '\n';
  }
  for (const auto& v : violations) os << "  violation: " << v << '\n';
  return os.str();
}

}  // namespace ktg
