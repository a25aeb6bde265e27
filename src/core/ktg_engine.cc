// Copyright (c) 2026 The ktg Authors.

#include "core/ktg_engine.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "core/greedy_heuristic.h"
#include "obs/phase_timer.h"
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
  }
  return "?";
}

Result<EngineMode> ParseEngineMode(const std::string& name) {
  if (name == "exact") return EngineMode::kExact;
  if (name == "anytime") return EngineMode::kAnytime;
  return Status::InvalidArgument("unknown mode '" + name +
                                 "' (expected exact|anytime)");
}

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

void KtgEngine::StartRun(const std::vector<Candidate>& sr) {
  frontier_.Reset(sr, p_, options_.sort != SortStrategy::kQkc);
  slot_vertex_.resize(sr.size());
  for (const Candidate& c : sr) slot_vertex_[c.slot] = c.vertex;
  memo_row_.assign(sr.size(), kNoRow);
  memo_bits_.clear();
  fill_floor_.assign(sr.size(), 0);
  rows_ = nullptr;
  rows_open_ = true;
  rows_cost_ = 0;
}

bool KtgEngine::RowsPaidFor() {
  if (!rows_open_) return false;
  if (rows_cost_ == 0) {
    rows_cost_ = ConflictRows::BuildCost(graph_.graph(), slot_vertex_, k_);
  }
  return stats_.distance_checks * CheckCost() >= rows_cost_;
}

void KtgEngine::FillFromGraph(uint64_t* row, uint32_t v, const uint64_t* rem) {
  if (rows_ == nullptr && !RowsPaidFor()) return;
  const size_t words = frontier_.words();
  uint64_t& floor = fill_floor_[v];
  // Every word with an unknown bit counted full: an O(words) bound that
  // turns most pivots away before any bit is counted.
  uint64_t open_words = 0;
  for (size_t w = 0; w < words; ++w) {
    open_words += (rem[w] & ~row[2 * w]) != 0 ? 1 : 0;
  }
  if (open_words == 0 || 64 * open_words * CheckCost() < floor) return;
  uint64_t unknown = 0;
  for (size_t w = 0; w < words; ++w) {
    unknown += PopCount(rem[w] & ~row[2 * w]);
  }
  const uint64_t checks = unknown * CheckCost();
  if (checks < floor) return;
  // Priced with the checks as the cap: a walk that costs more is turned
  // away as soon as its price passes them, and the price reached is kept
  // as the slot's floor. A walk that costs less fills the row now, so no
  // slot is priced again after its exact price is known.
  const VertexId pivot = slot_vertex_[v];
  const uint64_t cost =
      ConflictRows::FillCost(graph_.graph(), pivot, k_, words, checks);
  if (cost > checks) {
    floor = cost;
    return;
  }
  if (rows_ == nullptr) {
    own_rows_.Build(graph_.graph(), slot_vertex_, k_);
    rows_ = &own_rows_;
  }
  rows_->Fill(pivot, row + 1, 2);
  for (size_t w = 0; w < words; ++w) row[2 * w] = ~uint64_t{0};
  ++stats_.distance_checks;  // one traversal counts as one check
}

uint64_t* KtgEngine::MemoRow(uint32_t slot) {
  const size_t row_words = 2 * frontier_.words();
  if (memo_row_[slot] == kNoRow) {
    memo_row_[slot] = static_cast<uint32_t>(memo_bits_.size() / row_words);
    memo_bits_.resize(memo_bits_.size() + row_words, 0);
  }
  return memo_bits_.data() + size_t{memo_row_[slot]} * row_words;
}

uint64_t KtgEngine::MemoWithinK(uint64_t* row, uint32_t v, size_t w,
                                uint64_t bits) {
  uint64_t* word = row + 2 * w;  // {known, within}
  const size_t v_word = 2 * (v / 64);
  const uint64_t v_bit = uint64_t{1} << (v % 64);
  for (uint64_t unknown = bits & ~word[0]; unknown != 0;
       unknown &= unknown - 1) {
    const int bit = std::countr_zero(unknown);
    const size_t c = w * 64 + bit;
    // c's own row, if c was a pivot before, may know the pair already.
    const uint32_t c_row = memo_row_[c];
    const uint64_t* c_word =
        c_row == kNoRow ? nullptr
                        : memo_bits_.data() +
                              2 * size_t{c_row} * frontier_.words() + v_word;
    bool within;
    if (c_word != nullptr && (c_word[0] & v_bit) != 0) {
      within = (c_word[1] & v_bit) != 0;
    } else {
      within = !checker_.IsFartherThan(slot_vertex_[c], slot_vertex_[v], k_,
                                       &stats_.distance_checks);
    }
    if (within) word[1] |= uint64_t{1} << bit;
  }
  word[0] |= bits;
  return word[1] & bits;
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

uint32_t KtgEngine::BuildChild(uint32_t depth, uint32_t v) {
  const VertexId pivot = slot_vertex_[v];
  // The bulk path is the run's k-line memo: a pair reaches the checker
  // once, however many subtrees hold both, or the whole row comes from the
  // graph-side rows.
  const uint64_t* rem = frontier_.remaining(depth);
  uint64_t* row = options_.eager_kline_filtering && options_.bulk_filtering
                      ? MemoRow(v)
                      : nullptr;
  // The kKlineFilter sub-phase is timed only when a sink is attached: an
  // unobserved search reads no clock per child.
  obs::PhaseTimer filter_timer(instrument_ ? &stats_.phases : nullptr,
                               obs::Phase::kKlineFilter);
  if (row != nullptr) FillFromGraph(row, v, rem);
  uint64_t* child = frontier_.remaining(depth + 1);
  uint64_t dropped = 0;
  uint32_t size = 0;
  // One pass over the words; `within(w, bits)` returns the slots of `bits`
  // in word w that are within k hops of v.
  const auto filter = [&](auto within) {
    for (size_t w = 0; w < frontier_.words(); ++w) {
      uint64_t keep = rem[w];
      if (keep != 0) {
        const uint64_t conflicts = within(w, keep);
        dropped += PopCount(conflicts);
        keep &= ~conflicts;
        size += PopCount(keep);
      }
      child[w] = keep;
    }
  };
  if (!options_.eager_kline_filtering) {
    filter([](size_t, uint64_t) { return uint64_t{0}; });
  } else if (row != nullptr) {
    filter([&](size_t w, uint64_t bits) {
      return MemoWithinK(row, v, w, bits);
    });
  } else {
    filter([&](size_t w, uint64_t bits) {
      uint64_t out = 0;
      ForEachSetBit(bits, [&](int bit) {
        if (!checker_.IsFartherThan(slot_vertex_[w * 64 + bit], pivot, k_,
                                    &stats_.distance_checks)) {
          out |= uint64_t{1} << bit;
        }
      });
      return out;
    });
  }
  stats_.kline_filtered += dropped;
  filter_timer.Stop();
  if (instrument_ && dropped > 0) {
    RecordTrace(obs::TraceEventKind::kKlineFilter, pivot,
                static_cast<int64_t>(dropped));
  }
  return size;
}

void KtgEngine::Search(uint32_t depth, CoverMask covered, uint32_t size) {
  if (controls_.StopRequested()) return;
  ++stats_.nodes_expanded;
  if (instrument_) {
    RecordTrace(obs::TraceEventKind::kExpand,
                members_.empty() ? kInvalidVertex : members_.back(), size);
  }
  if (!controls_.ChargeNode(stats_.nodes_expanded)) return;

  if (members_.size() == p_) {
    OfferCurrent(covered);
    return;
  }

  const uint32_t need = p_ - static_cast<uint32_t>(members_.size());
  if (size < need) return;
  const CoverMask reachable = frontier_.Open(depth, covered);

  // The reachable-coverage ceiling: no descendant can cover keywords outside
  // covered ∪ (union of remaining masks). It clamps the additive Theorem-2
  // bound, which otherwise exceeds |W_Q| on popular-keyword queries and
  // stops pruning entirely once the top groups reach full coverage.
  const int ceiling = options_.ceiling_prune ? PopCount(reachable)
                                             : std::numeric_limits<int>::max();
  if (options_.keyword_pruning && controls_.Full()) {
    const int additive = PopCount(covered) + frontier_.Gain(depth, need);
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

  // Suffix reachable-coverage masks for the residual clamp: the child
  // branching on v draws its whole subtree from v and the slots after it,
  // so popcount(covered | their masks' union) bounds its final coverage —
  // tighter than the node ceiling (which charges the already-skipped
  // prefix) and non-increasing along the walk. Built lazily, once per
  // node, the first time a full collector makes the bound consultable.
  const CoverMask* suffix = nullptr;
  const bool residual = options_.residual_bound && options_.keyword_pruning;

  frontier_.Walk(depth, size, [&](uint32_t v, int vkc, uint32_t left) {
    if (left + 1 < need) return false;
    if (controls_.StopRequested()) return false;
    if (residual && suffix == nullptr && controls_.Full()) {
      suffix = frontier_.Suffix(depth, left);
    }
    CoverMask reach = 0;
    if (suffix != nullptr) reach = frontier_.mask(v) | suffix[left];
    return Branch(depth, v, vkc, covered, ceiling, need,
                  suffix != nullptr ? &reach : nullptr);
  });
}

bool KtgEngine::Branch(uint32_t depth, uint32_t v, int vkc, CoverMask covered,
                       int ceiling, uint32_t need, const CoverMask* reach) {
  const VertexId vertex = slot_vertex_[v];

  // Parent-side bound for this child (cheap for VKC orders; skipped for
  // the static QKC order, whose walk is not vkc-descending).
  if (options_.keyword_pruning && controls_.Full()) {
    const int threshold = controls_.Threshold();
    if (ceiling <= threshold) {
      ++stats_.keyword_prunes;
      if (instrument_) {
        RecordTrace(obs::TraceEventKind::kKeywordPrune, vertex, ceiling);
      }
      return false;  // no child can beat the N-th result
    }
    if (options_.sort != SortStrategy::kQkc) {
      const int bound =
          PopCount(covered) + vkc + frontier_.Gain(depth, need - 1);
      if (bound <= threshold) {
        ++stats_.keyword_prunes;
        if (instrument_) {
          RecordTrace(obs::TraceEventKind::kKeywordPrune, vertex, bound);
        }
        // The walk is vkc-descending: later children only bound lower.
        return false;
      }
    }
    if (reach != nullptr) {
      const int clamp = PopCount(covered | *reach);
      if (clamp <= threshold) {
        // The additive bound passed but the child's own suffix cannot
        // reach past the N-th coverage.
        ++stats_.ub_prunes;
        if (instrument_) {
          RecordTrace(obs::TraceEventKind::kKeywordPrune, vertex, clamp);
        }
        return false;  // later children's suffixes are subsets of this one
      }
    }
  }

  // Lazy feasibility check (ablation mode): validate v against S_I now.
  if (!options_.eager_kline_filtering) {
    for (const VertexId m : members_) {
      if (!checker_.IsFartherThan(vertex, m, k_, &stats_.distance_checks)) {
        return true;
      }
    }
  }

  const CoverMask child_covered = covered | frontier_.mask(v);
  const uint32_t child_size = BuildChild(depth, v);
  members_.push_back(vertex);
  Search(depth + 1, child_covered, child_size);
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
    // Seed placements are not search nodes (they would spend the node
    // budget); only the k-line removals and the checks carry over.
    SearchStats construction;
    auto g = GreedyConstruct(sr, skip, p_, k_, checker_, &construction);
    stats_.kline_filtered += construction.kline_filtered;
    stats_.distance_checks += construction.distance_checks;
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
    const std::vector<Candidate>& sr, uint32_t workers,
    const std::vector<Group>& seeds, const Stopwatch& run_watch,
    bool* complete) {
  // Suffix masks for the per-root residual clamp, built once for every
  // worker over the root order (see Search()).
  std::vector<CoverMask> suffix(sr.size() + 1, 0);
  for (size_t j = sr.size(); j-- > 0;) suffix[j] = sr[j].mask | suffix[j + 1];
  const bool residual = options_.residual_bound && options_.keyword_pruning;
  const int ceiling = options_.ceiling_prune ? PopCount(suffix[0])
                                             : std::numeric_limits<int>::max();
  // The graph-side rows, built here once for every worker when the
  // workers' first rows alone would ask checks worth the build.
  const ConflictRows* rows = nullptr;
  if (options_.eager_kline_filtering && options_.bulk_filtering) {
    slot_vertex_.resize(sr.size());
    for (const Candidate& c : sr) slot_vertex_[c.slot] = c.vertex;
    if (ConflictRows::BuildCost(graph_.graph(), slot_vertex_, k_) <=
        sr.size() * workers * CheckCost()) {
      own_rows_.Build(graph_.graph(), slot_vertex_, k_);
      rows = &own_rows_;
    }
  }
  const auto worker = [&](RootParallelShared& shared) {
    KtgEngine clone(graph_, index_, checker_, options_);
    clone.p_ = p_;
    clone.k_ = k_;
    clone.top_n_ = top_n_;
    clone.controls_ = RunControls(options_, run_watch, nullptr, &shared);
    clone.StartRun(sr);
    clone.rows_ = rows;
    clone.rows_open_ = false;
    clone.frontier_.Open(0, 0);
    // Root i is the serial first level's child i (members_ empty, covered
    // 0, need p_): the root S_R holds the slots after sr[i] in the root
    // order. Roots are claimed in ascending order, so the worker takes
    // each earlier root out once. Every Branch bound is non-increasing in
    // the root index, so a failed bound stops the claim loop (see
    // core/root_parallel.h).
    size_t taken = 0;
    shared.ClaimRoots([&](size_t i) {
      for (; taken <= i; ++taken) {
        clone.frontier_.Take(0, sr[taken].slot, sr[taken].vkc);
      }
      return clone.Branch(0, sr[i].slot, sr[i].vkc, 0, ceiling, p_,
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
  Result<KtgResult> result = RunInFrame(
      graph_, index_, checker_, query, options_,
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
    RankCandidates(sr, options_.sort, options_.degree_ascending);
  }

  // Anytime warm start (greedy seeds; see GreedySeeds).
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
      StartRun(sr);
      Search(0, 0, static_cast<uint32_t>(sr.size()));
    }
    obs::PhaseTimer timer(&stats_.phases, obs::Phase::kTopNMerge);
    out.groups = collector_.Take();
    out.complete = !controls_.stopped();
  } else {
    out.groups =
        ParallelRootSearch(sr, workers, seeds, run_watch, &out.complete);
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
