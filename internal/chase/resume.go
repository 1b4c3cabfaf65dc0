package chase

import (
	"repro/internal/dependency"
	"repro/internal/instance"
)

// ResumeFixpoint reconstructs a live Resumable around a previously computed
// chase fixpoint, without re-running the chase. The durable store uses it
// at recovery: a persisted fixpoint (decoded via the instance codec) is
// adopted as the current state, and subsequent Extend calls delta-chase
// from it exactly as if the original process had kept running.
//
// fixpoint is the full σ ∪ τ chase instance; the Resumable takes ownership
// of it. steps seeds the lifetime step counter (for reporting only). The
// caller asserts that fixpoint really is a fixpoint of s — nothing is
// re-verified here; ReSaturate would repair a stale one.
//
// The fresh-null source starts past the largest label in the fixpoint, so
// resumed chases never collide with persisted nulls. The delta tracker is
// anchored at the instance's current mark: a decoded instance starts a
// fresh insertion epoch, so the first Extend sees exactly the atoms it
// inserts — a pure delta pass, the whole point of resuming.
//
// Justification bookkeeping (incr's graph) is not reconstructible from the
// fixpoint alone; callers that need deletion support must treat the resumed
// state as merged (fall back to re-chase on deletes), which internal/incr's
// Resume does.
func ResumeFixpoint(s *dependency.Setting, fixpoint *instance.Instance, steps int, obs Observer) *Resumable {
	return &Resumable{
		s:       s,
		cur:     fixpoint,
		nulls:   instance.NewNullSource(fixpoint.MaxNullLabel() + 1),
		obs:     obs,
		steps:   steps,
		stc:     &stCache{},
		tracker: &deltaTracker{mark: fixpoint.Mark()},
		stSet:   stSetOf(s),
	}
}
