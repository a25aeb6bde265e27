// Copyright (c) 2026 The ktg Authors.

#include "core/ktg_engine.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "cache/query_key.h"
#include "obs/phase_timer.h"
#include "util/sorted_vector.h"
#include "util/timer.h"

namespace ktg {

const char* SortStrategyName(SortStrategy s) {
  switch (s) {
    case SortStrategy::kQkc:
      return "QKC";
    case SortStrategy::kVkc:
      return "VKC";
    case SortStrategy::kVkcDeg:
      return "VKC-DEG";
  }
  return "?";
}

const char* EngineModeName(EngineMode m) {
  switch (m) {
    case EngineMode::kExact:
      return "exact";
    case EngineMode::kAnytime:
      return "anytime";
    case EngineMode::kPortfolio:
      return "portfolio";
  }
  return "?";
}

bool ParseEngineMode(const std::string& name, EngineMode* out) {
  if (name == "exact") {
    *out = EngineMode::kExact;
  } else if (name == "anytime") {
    *out = EngineMode::kAnytime;
  } else if (name == "portfolio") {
    *out = EngineMode::kPortfolio;
  } else {
    return false;
  }
  return true;
}

namespace {

// One greedy construction over `sr` for the anytime warm start: drop the
// `skip` best-ranked first picks (restart diversification, exactly the
// greedy heuristic's rule), then repeatedly take the highest refreshed-VKC
// candidate (degree-ascending, then id tie-break — the KTG-VKC-DEG rank)
// and k-line-filter the rest. nullopt when the pool dead-ends before p.
std::optional<Group> GreedyConstructOnce(const std::vector<Candidate>& sr,
                                         uint32_t skip, uint32_t p,
                                         HopDistance k,
                                         DistanceChecker& checker,
                                         uint64_t* kline_filtered) {
  std::vector<Candidate> pool = sr;
  const auto best_of = [](std::vector<Candidate>& v, CoverMask covered) {
    size_t best = v.size();
    for (size_t i = 0; i < v.size(); ++i) {
      v[i].vkc = PopCount(NovelBits(v[i].mask, covered));
      if (best == v.size()) {
        best = i;
        continue;
      }
      const Candidate& b = v[best];
      if (v[i].vkc != b.vkc) {
        if (v[i].vkc > b.vkc) best = i;
      } else if (v[i].degree < b.degree) {
        best = i;
      }
    }
    return best;
  };
  for (uint32_t s = 0; s < skip; ++s) {
    const size_t drop = best_of(pool, 0);
    if (drop == pool.size()) return std::nullopt;
    pool.erase(pool.begin() + static_cast<int64_t>(drop));
  }
  Group group;
  CoverMask covered = 0;
  while (group.members.size() < p) {
    const size_t best = best_of(pool, covered);
    if (best == pool.size()) return std::nullopt;
    const Candidate chosen = pool[best];
    pool.erase(pool.begin() + static_cast<int64_t>(best));
    group.members.push_back(chosen.vertex);
    covered |= chosen.mask;
    std::vector<Candidate> next;
    next.reserve(pool.size());
    for (const Candidate& c : pool) {
      if (checker.IsFartherThan(c.vertex, chosen.vertex, k)) {
        next.push_back(c);
      } else {
        ++*kline_filtered;
      }
    }
    pool.swap(next);
  }
  std::sort(group.members.begin(), group.members.end());
  group.mask = covered;
  return group;
}

}  // namespace

KtgEngine::KtgEngine(const AttributedGraph& graph, const InvertedIndex& index,
                     DistanceChecker& checker, EngineOptions options)
    : graph_(graph), index_(index), checker_(checker), options_(options) {
  instrument_ = options_.metrics != nullptr || options_.trace != nullptr;
}

void KtgEngine::RecordTrace(obs::TraceEventKind kind, VertexId vertex,
                            int64_t detail) {
  if (options_.trace == nullptr) return;
  options_.trace->Record(kind, static_cast<uint32_t>(members_.size()), vertex,
                         detail);
}

void KtgEngine::SortCandidates(std::vector<Candidate>& cands) const {
  if (options_.sort == SortStrategy::kVkcDeg && options_.degree_ascending) {
    std::sort(cands.begin(), cands.end(), StaticRankLess{});
    return;
  }
  // kQkc and kVkc rank by vkc then id (kQkc is sorted once, with vkc ==
  // QKC counts, and never re-sorted); kVkcDeg here breaks vkc ties by
  // degree descending.
  const bool by_degree = options_.sort == SortStrategy::kVkcDeg;
  std::sort(cands.begin(), cands.end(),
            [by_degree](const Candidate& a, const Candidate& b) {
              if (a.vkc != b.vkc) return a.vkc > b.vkc;
              if (by_degree && a.degree != b.degree) {
                return a.degree > b.degree;
              }
              return a.vertex < b.vertex;
            });
}

int KtgEngine::OptimisticGain(const std::vector<Candidate>& cands, size_t from,
                              uint32_t need) const {
  if (need == 0 || from >= cands.size()) return 0;
  int gain = 0;
  if (options_.sort != SortStrategy::kQkc) {
    // vkc-descending order: the first `need` entries are the top ones.
    const size_t end = std::min(cands.size(), from + need);
    for (size_t i = from; i < end; ++i) gain += cands[i].vkc;
    return gain;
  }
  // QKC order is static, so select the `need` largest vkc values by scan
  // (need <= p is tiny; an insertion pass beats sorting a copy).
  int top[64] = {0};
  const uint32_t cap = std::min<uint32_t>(need, 64);
  uint32_t filled = 0;
  for (size_t i = from; i < cands.size(); ++i) {
    int x = cands[i].vkc;
    if (filled < cap) {
      top[filled++] = x;
      for (uint32_t j = filled - 1; j > 0 && top[j] > top[j - 1]; --j) {
        std::swap(top[j], top[j - 1]);
      }
    } else if (x > top[cap - 1]) {
      top[cap - 1] = x;
      for (uint32_t j = cap - 1; j > 0 && top[j] > top[j - 1]; --j) {
        std::swap(top[j], top[j - 1]);
      }
    }
  }
  for (uint32_t j = 0; j < filled; ++j) gain += top[j];
  return gain;
}

void KtgEngine::OfferCurrent(CoverMask covered) {
  ++stats_.groups_completed;
  if (instrument_) {
    RecordTrace(obs::TraceEventKind::kOffer, members_.back(),
                PopCount(covered));
  }
  Group g;
  g.members = members_;
  std::sort(g.members.begin(), g.members.end());
  g.mask = covered;
  controls_.Offer(std::move(g));
  if (options_.stop_at_count > 0 && controls_.Full() &&
      controls_.Threshold() >= options_.stop_at_count) {
    controls_.RequestStop();
  }
}

std::vector<Candidate> KtgEngine::BuildChildCandidates(
    const std::vector<Candidate>& sr, size_t i, CoverMask child_covered,
    CoverMask* child_union) {
  const Candidate& v = sr[i];

  // Child S_R: candidates after i, k-line-filtered against v (Theorem 3),
  // with VKC refreshed against the enlarged S_I. When the checker can
  // materialize v's <=k ball, the whole filter costs one traversal plus
  // binary searches.
  const std::vector<VertexId>* ball = nullptr;
  if (options_.eager_kline_filtering && options_.bulk_filtering) {
    ball = checker_.BallWithinK(v.vertex, k_);
  }
  // The stopwatch read-back (and the clock reads it implies) happens only
  // when a sink is attached; sub-phase attribution is a diagnostic detail.
  Stopwatch filter_watch;
  uint64_t dropped = 0;
  std::vector<Candidate> child;
  child.reserve(sr.size() - i - 1);
  CoverMask union_mask = 0;
  for (size_t j = i + 1; j < sr.size(); ++j) {
    Candidate c = sr[j];
    if (options_.eager_kline_filtering) {
      const bool conflict =
          ball != nullptr ? SortedContains(*ball, c.vertex)
                          : !checker_.IsFartherThan(c.vertex, v.vertex, k_);
      if (conflict) {
        ++dropped;
        continue;
      }
    }
    c.vkc = PopCount(NovelBits(c.mask, child_covered));
    union_mask |= c.mask;
    child.push_back(c);
  }
  if (options_.sort != SortStrategy::kQkc) SortCandidates(child);
  stats_.kline_filtered += dropped;
  if (instrument_) {
    stats_.phases[obs::Phase::kKlineFilter] += filter_watch.ElapsedMillis();
    if (dropped > 0) {
      RecordTrace(obs::TraceEventKind::kKlineFilter, v.vertex,
                  static_cast<int64_t>(dropped));
    }
  }
  *child_union = union_mask;
  return child;
}

void KtgEngine::Search(const std::vector<Candidate>& sr, CoverMask covered,
                       CoverMask sr_union) {
  if (controls_.StopRequested()) return;
  ++stats_.nodes_expanded;
  if (instrument_) {
    RecordTrace(obs::TraceEventKind::kExpand,
                members_.empty() ? kInvalidVertex : members_.back(),
                static_cast<int64_t>(sr.size()));
  }
  if (!controls_.ChargeNode(stats_.nodes_expanded)) return;

  if (members_.size() == p_) {
    OfferCurrent(covered);
    return;
  }

  const uint32_t need = p_ - static_cast<uint32_t>(members_.size());
  if (sr.size() < need) return;

  // The reachable-coverage ceiling: no descendant can cover keywords outside
  // covered ∪ (union of remaining masks). It clamps the additive Theorem-2
  // bound, which otherwise exceeds |W_Q| on popular-keyword queries and
  // stops pruning entirely once the top groups reach full coverage.
  const int ceiling = options_.ceiling_prune
                          ? PopCount(covered | sr_union)
                          : std::numeric_limits<int>::max();
  if (options_.keyword_pruning && controls_.Full()) {
    const int additive = PopCount(covered) + OptimisticGain(sr, 0, need);
    if (std::min(additive, ceiling) <= controls_.Threshold()) {
      ++stats_.keyword_prunes;
      if (instrument_) {
        RecordTrace(obs::TraceEventKind::kKeywordPrune,
                    members_.empty() ? kInvalidVertex : members_.back(),
                    std::min(additive, ceiling));
      }
      return;
    }
  }

  // Suffix reachable-coverage masks for the residual clamp: suffix[j] =
  // ∪ masks of sr[j..]. The child branching on sr[i] draws its whole
  // subtree from sr[i..], so popcount(covered | suffix[i]) bounds its
  // final coverage — tighter than the node ceiling (which charges the
  // already-skipped prefix) and monotone non-increasing in i. Built
  // lazily, once per node, the first time a full collector makes the
  // bound consultable; entries below the triggering child stay zero and
  // are never read (the loop only moves forward).
  std::vector<CoverMask> suffix;
  const bool residual = options_.residual_bound && options_.keyword_pruning;

  for (size_t i = 0; i + need <= sr.size(); ++i) {
    if (controls_.StopRequested()) return;
    if (residual && suffix.empty() && controls_.Full()) {
      suffix.resize(sr.size() + 1);
      suffix[sr.size()] = 0;
      for (size_t j = sr.size(); j-- > i;) {
        suffix[j] = sr[j].mask | suffix[j + 1];
      }
    }
    if (!Branch(sr, i, covered, ceiling, need,
                suffix.empty() ? nullptr : &suffix[i])) {
      return;
    }
  }
}

bool KtgEngine::Branch(const std::vector<Candidate>& sr, size_t i,
                       CoverMask covered, int ceiling, uint32_t need,
                       const CoverMask* suffix) {
  const Candidate& v = sr[i];

  // Parent-side bound for this child (cheap for VKC orders; skipped for
  // the static QKC order where it would cost a scan per child).
  if (options_.keyword_pruning && controls_.Full()) {
    const int threshold = controls_.Threshold();
    if (ceiling <= threshold) {
      ++stats_.keyword_prunes;
      if (instrument_) {
        RecordTrace(obs::TraceEventKind::kKeywordPrune, v.vertex, ceiling);
      }
      return false;  // no child can beat the N-th result
    }
    if (options_.sort != SortStrategy::kQkc) {
      const int bound =
          PopCount(covered) + v.vkc + OptimisticGain(sr, i + 1, need - 1);
      if (bound <= threshold) {
        ++stats_.keyword_prunes;
        if (instrument_) {
          RecordTrace(obs::TraceEventKind::kKeywordPrune, v.vertex, bound);
        }
        // sr is vkc-descending: later children only bound lower.
        return false;
      }
    }
    if (suffix != nullptr) {
      const int clamp = PopCount(covered | *suffix);
      if (clamp <= threshold) {
        // The additive bound passed but the child's own suffix cannot
        // reach past the N-th coverage.
        ++stats_.ub_prunes;
        if (instrument_) {
          RecordTrace(obs::TraceEventKind::kKeywordPrune, v.vertex, clamp);
        }
        return false;  // suffix[i] ⊇ suffix[i+1]: later children clamp lower
      }
    }
  }

  // Lazy feasibility check (ablation mode): validate v against S_I now.
  if (!options_.eager_kline_filtering) {
    for (const VertexId m : members_) {
      if (!checker_.IsFartherThan(v.vertex, m, k_)) return true;
    }
  }

  const CoverMask child_covered = covered | v.mask;
  CoverMask child_union = 0;
  std::vector<Candidate> child =
      BuildChildCandidates(sr, i, child_covered, &child_union);

  members_.push_back(v.vertex);
  Search(child, child_covered, child_union);
  members_.pop_back();
  return true;
}

std::vector<Group> KtgEngine::GreedySeeds(const std::vector<Candidate>& sr) {
  std::vector<Group> seeds;
  if (sr.size() < p_) return seeds;
  // Same restart budget shape as the greedy heuristic: each attempt skips
  // one more leading pivot; a few extra attempts absorb dead ends.
  const uint32_t max_attempts = top_n_ + 8;
  for (uint32_t skip = 0;
       seeds.size() < top_n_ && skip < max_attempts && skip < sr.size();
       ++skip) {
    auto g = GreedyConstructOnce(sr, skip, p_, k_, checker_,
                                 &stats_.kline_filtered);
    if (!g.has_value()) continue;
    // Restarts can reconverge to an already-found group; keep seeds unique
    // so they occupy distinct collector slots.
    if (std::find(seeds.begin(), seeds.end(), *g) == seeds.end()) {
      seeds.push_back(std::move(*g));
    }
  }
  stats_.groups_completed += seeds.size();
  return seeds;
}

uint32_t KtgEngine::EffectiveWorkers(size_t num_candidates) const {
  if (!checker_.concurrent_read_safe()) return 1;
  if (num_candidates < p_) return 1;  // no feasible group at all
  return RootWorkers(options_.num_threads, num_candidates - p_ + 1);
}

std::vector<Group> KtgEngine::ParallelRootSearch(
    const std::vector<Candidate>& sr, CoverMask sr_union, uint32_t workers,
    const std::vector<Group>& seeds, const Stopwatch& run_watch,
    bool* complete) {
  // Suffix masks for the per-root residual clamp, built once for every
  // worker (see Search(); O(|sr|) here instead of O(|sr|) per root).
  std::vector<CoverMask> suffix(sr.size() + 1, 0);
  const bool residual = options_.residual_bound && options_.keyword_pruning;
  if (residual) {
    for (size_t j = sr.size(); j-- > 0;) suffix[j] = sr[j].mask | suffix[j + 1];
  }
  const int ceiling = options_.ceiling_prune ? PopCount(sr_union)
                                             : std::numeric_limits<int>::max();
  const auto worker = [&](RootParallelShared& shared) {
    KtgEngine clone(graph_, index_, checker_, options_);
    clone.p_ = p_;
    clone.k_ = k_;
    clone.top_n_ = top_n_;
    clone.controls_ = RunControls(options_, run_watch, nullptr, &shared);
    // Root i is the serial first level's child i (members_ empty, covered
    // 0, need p_). Every Branch bound is non-increasing in the root index,
    // so a failed bound stops the claim loop (see core/root_parallel.h).
    shared.ClaimRoots([&](size_t i) {
      return clone.Branch(sr, i, 0, ceiling, p_,
                          residual ? &suffix[i] : nullptr)
                 ? RootStep::kContinue
                 : RootStep::kStop;
    });
    return clone.stats_;
  };
  return RunRootParallel(workers, top_n_, sr.size() - p_ + 1, seeds, worker,
                         &stats_, complete);
}

Result<KtgResult> KtgEngine::Run(const KtgQuery& query) {
  // stop_at_count runs are truncated by design: they supply no cache key.
  std::optional<CacheKeySpec> key;
  if (options_.stop_at_count == 0) {
    key = CacheKeySpec{kEngineTagKtg, options_.sort,
                       options_.degree_ascending};
  }
  Result<KtgResult> result = RunInFrame(
      graph_, index_, checker_, query, options_, "engine", key,
      [&](std::vector<Candidate>& sr, const Stopwatch& run_watch,
          SearchStats* stats) {
        return SearchCandidates(query, sr, run_watch, stats);
      });
  if (result.ok()) last_run_complete_ = result->stats.complete;
  return result;
}

Result<SearchOutcome> KtgEngine::SearchCandidates(const KtgQuery& query,
                                                  std::vector<Candidate>& sr,
                                                  const Stopwatch& run_watch,
                                                  SearchStats* stats) {
  p_ = query.group_size;
  k_ = query.tenuity;
  top_n_ = query.top_n;
  collector_ = TopNCollector(query.top_n);
  controls_ = RunControls(options_, run_watch, &collector_);
  members_.clear();
  stats_ = *stats;
  {
    obs::PhaseTimer timer(&stats_.phases, obs::Phase::kCandidateGen);
    SortCandidates(sr);
  }

  CoverMask sr_union = 0;
  for (const Candidate& c : sr) sr_union |= c.mask;

  // Anytime warm start (greedy seeds; see GreedySeeds). kPortfolio reaching
  // the engine directly is treated the same — the portfolio itself lives in
  // src/heur/ and dispatches before Run().
  std::vector<Group> seeds;
  if (options_.mode != EngineMode::kExact) {
    obs::PhaseTimer timer(&stats_.phases, obs::Phase::kBbSearch);
    seeds = GreedySeeds(sr);
  }

  SearchOutcome out;
  out.seeded = seeds.size();
  const uint32_t workers = EffectiveWorkers(sr.size());
  if (workers <= 1) {
    {
      obs::PhaseTimer timer(&stats_.phases, obs::Phase::kBbSearch);
      for (Group& g : seeds) collector_.Offer(std::move(g));
      Search(sr, 0, sr_union);
    }
    obs::PhaseTimer timer(&stats_.phases, obs::Phase::kTopNMerge);
    out.groups = collector_.Take();
    out.complete = !controls_.stopped();
  } else {
    out.groups = ParallelRootSearch(sr, sr_union, workers, seeds, run_watch,
                                    &out.complete);
    out.parallel = true;
  }
  *stats = stats_;
  return out;
}

Result<KtgResult> RunKtg(const AttributedGraph& graph,
                         const InvertedIndex& index, DistanceChecker& checker,
                         const KtgQuery& query, EngineOptions options) {
  KtgEngine engine(graph, index, checker, options);
  return engine.Run(query);
}

}  // namespace ktg
