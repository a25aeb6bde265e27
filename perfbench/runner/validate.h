// The correctness gate. Answers are checked against an adjacency list the
// benchmark keeps itself (it applies the mutate batches in the order the
// server published them), so distances never come from the index under
// test.

#ifndef PERFBENCH_VALIDATE_H_
#define PERFBENCH_VALIDATE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/query.h"
#include "core/snapshot.h"
#include "keywords/attributed_graph.h"

namespace perfbench {

/// One returned group as the benchmark saw it.
struct GroupRecord {
  std::vector<ktg::VertexId> members;
  int covered = 0;
  /// Reported coverage mask; only direct library results carry one.
  bool has_mask = false;
  ktg::CoverMask mask = 0;
};

/// One answer to check: which pool query, at which epoch, with what groups.
struct AnswerRecord {
  uint32_t query = 0;
  uint64_t epoch = 0;
  std::vector<GroupRecord> groups;
};

/// 64-bit digest of an answer, for de-duplicating identical answers.
uint64_t AnswerDigest(const AnswerRecord& a);

/// The benchmark's own copy of the graph at one epoch.
class EpochGraph {
 public:
  /// `g` must outlive this object (its vocabulary is consulted).
  explicit EpochGraph(const ktg::AttributedGraph& g);

  /// Applies a batch with SnapshotStore semantics (insertions, then
  /// removals, then keyword additions; satisfied deltas are skipped).
  void Apply(const ktg::MutationBatch& batch);

  /// Empty when `groups` is a valid answer to `q` on this graph: at most N
  /// groups, ordered by coverage, each of p distinct in-range members with
  /// pairwise hop distance > k (bounded BFS), every member covering a
  /// query keyword, and the reported coverage equal to the recomputed
  /// one. Otherwise a description of the first violation.
  std::string Check(const ktg::KtgQuery& q,
                    const std::vector<GroupRecord>& groups);

  /// This epoch as a library graph (keywords new to the epoch-0
  /// vocabulary are left out: no pool query can name them).
  ktg::AttributedGraph Materialize() const;

 private:
  // Sorted vertices within k hops of v (excluding v), memoized until the
  // next topology change.
  const std::vector<ktg::VertexId>& Ball(ktg::VertexId v, ktg::HopDistance k);

  std::vector<std::vector<ktg::VertexId>> adj_;
  std::vector<std::vector<ktg::KeywordId>> keywords_;
  const ktg::Vocabulary* vocab_;
  std::unordered_map<uint64_t, std::vector<ktg::VertexId>> balls_;
  std::vector<uint32_t> stamp_;  // BFS visited marks
  uint32_t stamp_epoch_ = 0;
};

/// Coverage profile: covered counts, best first.
std::vector<int> Profile(const std::vector<GroupRecord>& groups);
std::vector<int> Profile(const ktg::KtgResult& result);

/// Converts an engine result into records (masks included).
std::vector<GroupRecord> ToRecords(const ktg::KtgResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_VALIDATE_H_
