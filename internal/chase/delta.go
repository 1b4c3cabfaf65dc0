package chase

import (
	"repro/internal/dependency"
	"repro/internal/instance"
)

// DeltaBodyEnvsKeyedBetween is semi-naive (delta-driven) body evaluation:
// it enumerates the body matches of d in cur that use at least one atom
// added between the two marks of cur's insertion log. Because tgd bodies
// are monotone, those are exactly the matches the insertions created. The
// join is seeded, one body-atom occurrence at a time, with each delta atom
// in insertion order (instance.EachAddedBetween, via the tgd's compiled
// unifier), and the remaining atoms are completed against the tgd's cached
// delta plan (body minus the seeded atom, its variables pre-bound).
//
// The same match can arise once per delta atom it uses; matches are
// deduplicated by their justification key (d, ū, v̄), so each is reported
// once, as a BodyPlan slot environment together with that key — handed on
// for callers that key their own bookkeeping by justification (the
// oblivious firing policy; cwa's enumeration, which closes states under
// chosen justifications).
//
// Both marks must be valid on cur. Atoms of relations not mentioned in the
// body (e.g. source atoms in the interval when d is a target tgd) unify
// with nothing and are skipped. The env passed to f is reused — copy what
// you keep. f must not mutate cur; returning false stops the enumeration.
func DeltaBodyEnvsKeyedBetween(d *dependency.TGD, cur *instance.Instance, from, to instance.Mark, f func(env []instance.Value, key string) bool) {
	if d.BodyAtoms == nil {
		panic("chase: delta evaluation requires a conjunctive body")
	}
	n := d.BodyPlan().NumSlots()
	buf := make([]instance.Value, n)  // delta result in body slot order
	init := make([]instance.Value, n) // unified pre-bound slots (prefix used)
	seen := make(map[string]bool)
	cur.EachAddedBetween(from, to, func(da instance.Atom) bool {
		for i, ba := range d.BodyAtoms {
			if ba.Rel != da.Rel || len(ba.Terms) != len(da.Args) {
				continue
			}
			if !d.DeltaUnifierFor(i).Unify(da.Args, init) {
				continue
			}
			perm := d.DeltaPerm(i)
			stopped := !d.DeltaPlan(i).Eval(cur, init, func(env []instance.Value) bool {
				for j, s := range perm {
					buf[s] = env[j]
				}
				k := justificationKeySlots(d, buf)
				if seen[k] {
					return true
				}
				seen[k] = true
				return f(buf, k)
			})
			if stopped {
				return false
			}
		}
		return true
	})
}

// deltaTracker tracks the insertion-log position of the last tgd pass: the
// next pass's delta is the watermark interval [mark, now) — a view over the
// instance's own log, with no copied atom sets.
type deltaTracker struct {
	mark instance.Mark
	// full forces the next pass to re-enumerate everything (set after egd
	// applications, which rewrite values and invalidate the delta; a stale
	// mark — removals bumped the epoch — forces the same fallback).
	full bool
}

func (t *deltaTracker) invalidate() { t.full = true }
