// Copyright (c) 2026 The ktg Authors.

#include "cache/caching_checker.h"

#include "util/macros.h"
#include "util/sorted_vector.h"

namespace ktg {

CachingChecker::CachingChecker(std::unique_ptr<DistanceChecker> inner,
                               const Graph& graph, KtgCache* cache,
                               uint64_t pinned_epoch)
    : owned_(std::move(inner)),
      inner_(owned_.get()),
      cache_(cache),
      epoch_(pinned_epoch),
      bfs_(graph) {
  KTG_CHECK(inner_ != nullptr);
  KTG_CHECK(cache_ != nullptr);
}

CachingChecker::CachingChecker(DistanceChecker* inner, const Graph& graph,
                               KtgCache* cache, uint64_t pinned_epoch)
    : inner_(inner), cache_(cache), epoch_(pinned_epoch), bfs_(graph) {
  KTG_CHECK(inner_ != nullptr);
  KTG_CHECK(cache_ != nullptr);
}

const std::vector<VertexId>* CachingChecker::BallWithinKImpl(
    VertexId pivot, HopDistance k, uint64_t* traversals) {
  KtgCache::BallPtr ball = cache_->GetBall(pivot, k, epoch_);
  if (ball == nullptr) {
    // Prefer the inner checker's own bulk path (the BFS checker memoizes
    // one ball; index checkers return nullptr) so wrapping never computes
    // a ball the inner index could have produced cheaper. Its traversal,
    // if any, counts as this call's.
    if (const std::vector<VertexId>* inner_ball =
            inner_->BallWithinK(pivot, k, traversals)) {
      ball = std::make_shared<const std::vector<VertexId>>(*inner_ball);
    } else {
      ++*traversals;  // one traversal-equivalent, mirroring BfsChecker
      // Cached balls are long-lived and charged by capacity: store them
      // exactly sized, not with the BFS's growth slack.
      std::vector<VertexId> fresh = bfs_.Ball(pivot, k);
      fresh.shrink_to_fit();
      ball = std::make_shared<const std::vector<VertexId>>(std::move(fresh));
    }
    cache_->PutBall(pivot, k, ball, epoch_);
  }
  holder_ = std::move(ball);
  return holder_.get();
}

bool CachingChecker::IsFartherThanImpl(VertexId u, VertexId v, HopDistance k) {
  if (u == v) return false;
  if (KtgCache::BallPtr ball = cache_->PeekBall(u, k, epoch_)) {
    return !SortedContains(*ball, v);
  }
  if (KtgCache::BallPtr ball = cache_->PeekBall(v, k, epoch_)) {
    return !SortedContains(*ball, u);
  }
  // This call's IsFartherThan has counted the check already.
  return IsFartherThanUncounted(*inner_, u, v, k);
}

std::unique_ptr<DistanceChecker> MaybeWrapWithCache(
    std::unique_ptr<DistanceChecker> inner, const Graph& graph,
    KtgCache* cache, uint64_t pinned_epoch) {
  if (cache == nullptr) return inner;
  return std::make_unique<CachingChecker>(std::move(inner), graph, cache,
                                          pinned_epoch);
}

}  // namespace ktg
