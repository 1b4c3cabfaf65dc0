package chase

import (
	"repro/internal/dependency"
	"repro/internal/instance"
)

// Oblivious runs the oblivious chase: every trigger — a tgd d together
// with a body assignment (ū, v̄) — fires exactly once, with fresh nulls for
// the existential variables, regardless of whether the head is already
// witnessed; egd violations are resolved as usual, and a fired trigger is
// never re-fired even if an egd later merges its values.
//
// The oblivious chase is the practical engine variant (per-trigger
// bookkeeping instead of head-satisfaction checks) and it isolates the gap
// between the paper's two acyclicity notions: because a trigger exists per
// ȳ-assignment, fresh values at ȳ-positions create new triggers, so the
// oblivious chase terminates on all sources for RICHLY acyclic settings
// (Definition 7.3 adds exactly the ȳ → z̄ edges) but may diverge for
// settings that are only weakly acyclic — the phenomenon behind the
// restriction in Proposition 7.4. The standard chase (Standard) terminates
// for all weakly acyclic settings.
func Oblivious(s *dependency.Setting, src *instance.Instance, opt Options) (*Result, error) {
	r, err := chaseWith(s, src, firing{fired: make(map[string]bool)}, nil, &stCache{}, opt)
	if r == nil {
		return nil, err
	}
	// Budget and cancellation expose the partial result, as Standard does.
	return r.result(), err
}
