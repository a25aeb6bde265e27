// Copyright (c) 2026 The ktg Authors.
// RAII phase timing.
//
// A PhaseTimer charges the wall-clock between its construction and
// destruction (or Stop()) to one Phase slot of a PhaseBreakdown. Timers
// nest freely — each instance accumulates independently, so an inner
// kKlineFilter timer inside an outer kBbSearch scope attributes the same
// wall-clock to both (sub-phase semantics). A null sink makes the timer a
// no-op, which is how engines keep the disabled-observability path free of
// clock reads on hot loops.

#ifndef KTG_OBS_PHASE_TIMER_H_
#define KTG_OBS_PHASE_TIMER_H_

#include "obs/phases.h"
#include "util/timer.h"

namespace ktg::obs {

/// Accumulates elapsed wall-clock into `(*sink)[phase]` on destruction.
class PhaseTimer {
 public:
  PhaseTimer(PhaseBreakdown* sink, Phase phase) : sink_(sink), phase_(phase) {
    if (sink_ != nullptr) watch_.Reset();
  }
  ~PhaseTimer() { Stop(); }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  /// Records now instead of at destruction; further Stop() calls (and the
  /// destructor) are no-ops.
  void Stop() {
    if (sink_ == nullptr) return;
    (*sink_)[phase_] += watch_.ElapsedMillis();
    sink_ = nullptr;
  }

 private:
  PhaseBreakdown* sink_;
  Phase phase_;
  Stopwatch watch_{Stopwatch::kUnstarted};
};

}  // namespace ktg::obs

#endif  // KTG_OBS_PHASE_TIMER_H_
