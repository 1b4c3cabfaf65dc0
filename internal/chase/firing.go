package chase

import (
	"repro/internal/dependency"
	"repro/internal/instance"
	"repro/internal/query"
)

// firing is a chase's firing policy: the one rule in which the standard
// chase, the α-chase (Definition 4.1) and the oblivious chase differ —
// when a tgd trigger (d, ū, v̄) counts as applicable, and which values fill
// its existential variables. Everything else (egd handling, semi-naive
// trigger enumeration, budgets, observers) is the shared loop of
// Resumable.run.
//
//   - standard (the zero value): applicable while no extension of the body
//     match satisfies the head; fires with fresh nulls.
//   - α (alpha set): applicable while the head instantiated with
//     ᾱ(d, ū, v̄) is not fully present (Remark 4.3); fires with those values.
//   - oblivious (fired set): applicable until the trigger has fired once;
//     fires with fresh nulls.
//
// All three are monotone — a trigger that is not applicable stays so while
// atoms are only added — which is what makes the loop's semi-naive passes
// sound for each of them. Egd merges and removals break monotonicity; the
// loop answers both with a full scan.
type firing struct {
	alpha Alpha
	fired map[string]bool

	vals, head []instance.Value // α scratch
}

// applicable reports whether the trigger of conjunctive tgd d with body
// slot environment env is applicable in cur. key is the trigger's
// justification key when the caller already has it, "" otherwise.
func (f *firing) applicable(d *dependency.TGD, cur *instance.Instance, env []instance.Value, key string) bool {
	switch {
	case f.alpha != nil:
		n := d.HeadSlotsPlan().NumSlots()
		if cap(f.head) < n {
			f.head = make([]instance.Value, n)
		}
		head := f.head[:n]
		copy(head, env)
		return f.alphaMissing(d, cur, head)
	case f.fired != nil:
		if key == "" {
			key = justificationKeySlots(d, env)
		}
		return !f.fired[key]
	default:
		return !headSatisfiedSlots(d, cur, env)
	}
}

// fire re-checks a pending trigger against cur. head is the head slot
// environment with the body match as its prefix; when the trigger is still
// applicable, fire fills head's existential slots, records the firing, and
// reports true.
func (f *firing) fire(d *dependency.TGD, cur *instance.Instance, head []instance.Value, nulls *instance.NullSource) bool {
	switch {
	case f.alpha != nil:
		return f.alphaMissing(d, cur, head)
	case f.fired != nil:
		key := justificationKeySlots(d, head)
		if f.fired[key] {
			return false
		}
		f.fired[key] = true
	default:
		if headSatisfiedSlots(d, cur, head) {
			return false
		}
	}
	for _, sl := range d.ExistsSlots() {
		head[sl] = nulls.Fresh()
	}
	return true
}

// alphaMissing fills head's existential slots with ᾱ(d, ū, v̄) and reports
// whether the head under them is not fully present in cur.
func (f *firing) alphaMissing(d *dependency.TGD, cur *instance.Instance, head []instance.Value) bool {
	f.vals = alphaValuesSlots(f.alpha, d, head, f.vals)
	for i, sl := range d.ExistsSlots() {
		head[sl] = f.vals[i]
	}
	return !d.HeadTemplates().AllPresent(cur, head)
}

// applicableBinding is applicable for a tgd with a general first-order
// body, whose matches are Bindings of the frontier variables.
func (f *firing) applicableBinding(d *dependency.TGD, cur *instance.Instance, env query.Binding) bool {
	switch {
	case f.alpha != nil:
		return f.fireBinding(d, cur, env.Clone(), nil)
	case f.fired != nil:
		return !f.fired[JustificationKeyOf(d, env)]
	default:
		return !headSatisfied(d, cur, env)
	}
}

// fireBinding is fire for a general first-order body: when the trigger is
// still applicable it binds env's existential variables, records the
// firing, and reports true.
func (f *firing) fireBinding(d *dependency.TGD, cur *instance.Instance, env query.Binding, nulls *instance.NullSource) bool {
	switch {
	case f.alpha != nil:
		for z, v := range alphaTuple(f.alpha, d, env) {
			env[z] = v
		}
		for _, a := range headAtomsUnder(d, env) {
			if !cur.Has(a) {
				return true
			}
		}
		return false
	case f.fired != nil:
		key := JustificationKeyOf(d, env)
		if f.fired[key] {
			return false
		}
		f.fired[key] = true
	default:
		if headSatisfied(d, cur, env) {
			return false
		}
	}
	for _, z := range d.Exists {
		env[z] = nulls.Fresh()
	}
	return true
}
