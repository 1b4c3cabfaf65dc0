package chase

import (
	"strings"

	"repro/internal/dependency"
	"repro/internal/instance"
	"repro/internal/query"
)

// Justification identifies a potential justification (d, ū, v̄, z) ∈ J_D
// for producing a value through the existentially quantified variable z of
// tgd d under the body assignment x̄ ↦ ū, ȳ ↦ v̄ (Section 4).
type Justification struct {
	Dep string
	U   []instance.Value // assignment to d.X, in order
	V   []instance.Value // assignment to d.Y, in order
	Z   string
}

// Key returns a canonical map key for the justification.
func (j Justification) Key() string {
	var b strings.Builder
	b.WriteString(j.Dep)
	b.WriteByte('(')
	for i, v := range j.U {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(v.String())
	}
	b.WriteByte(';')
	for i, v := range j.V {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(v.String())
	}
	b.WriteString(").")
	b.WriteString(j.Z)
	return b.String()
}

func (j Justification) String() string { return j.Key() }

// Alpha is a mapping α: J_D → Dom. Implementations must be functions: the
// same justification always receives the same value (requirement CWA2 — no
// justification generates multiple values).
type Alpha interface {
	Value(j Justification) instance.Value
}

// FreshAlpha assigns a globally fresh null to every justification, memoized
// so repeated queries agree. It is the canonical α: the chase it drives
// produces the canonical CWA-presolution used for CanSol.
type FreshAlpha struct {
	Nulls *instance.NullSource
	Memo  map[string]instance.Value
}

// NewFreshAlpha builds a FreshAlpha drawing from the given null source.
func NewFreshAlpha(src *instance.NullSource) *FreshAlpha {
	return &FreshAlpha{Nulls: src, Memo: make(map[string]instance.Value)}
}

// Value returns the memoized fresh null for the justification.
func (a *FreshAlpha) Value(j Justification) instance.Value {
	k := j.Key()
	if v, ok := a.Memo[k]; ok {
		return v
	}
	v := a.Nulls.Fresh()
	a.Memo[k] = v
	return v
}

// MapAlpha reads explicitly tabulated justification values and delegates
// everything else to Base (or panics if Base is nil), mirroring the paper's
// tables where "∗ indicates that the value can be arbitrary".
type MapAlpha struct {
	M    map[string]instance.Value
	Base Alpha
}

// Value looks the justification up in the table, falling back to Base.
func (a MapAlpha) Value(j Justification) instance.Value {
	if v, ok := a.M[j.Key()]; ok {
		return v
	}
	if a.Base == nil {
		panic("chase: MapAlpha has no value for justification " + j.Key())
	}
	return a.Base.Value(j)
}

// alphaTuple computes ᾱ(d, ū, v̄): the tuple of α-values for d's
// existential variables in order.
func alphaTuple(a Alpha, d *dependency.TGD, env query.Binding) map[string]instance.Value {
	u := make([]instance.Value, len(d.X))
	for i, x := range d.X {
		u[i] = env[x]
	}
	v := make([]instance.Value, len(d.Y))
	for i, y := range d.Y {
		v[i] = env[y]
	}
	out := make(map[string]instance.Value, len(d.Exists))
	for _, z := range d.Exists {
		out[z] = a.Value(Justification{Dep: d.Name, U: u, V: v, Z: z})
	}
	return out
}

// AlphaResult extends Result with the α-chase verdict.
type AlphaResult struct {
	Result
	// Successful reports Definition 4.2(1): the chase reached a state where
	// the result satisfies Σ and no tgd is α-applicable.
	Successful bool
}

// AlphaChase runs an α-chase of the source instance with the setting's
// dependencies (Definition 4.1): a tgd d is α-applied with (ū, v̄) when its
// body holds and the head instantiated with the specific values ᾱ(d, ū, v̄)
// is not yet present — not when no witness exists at all (Remark 4.3
// explains why). Egd violations are resolved as in the standard chase: it
// is the chase loop under the α firing policy.
//
// The outcome is one of
//   - a successful chase (nil error): finite, result satisfies Σ, no tgd
//     α-applicable (Definition 4.2(1)),
//   - a failing chase (*EgdFailureError): an egd equated two constants
//     (Definition 4.2(2)),
//   - ErrBudgetExceeded: no fixpoint within the budget; by Lemma 4.5 a
//     genuinely infinite α-chase admits no successful sibling, so a generous
//     budget makes this a reliable non-termination signal.
func AlphaChase(s *dependency.Setting, src *instance.Instance, a Alpha, opt Options) (*AlphaResult, error) {
	r, err := chaseWith(s, src, firing{alpha: a}, nil, &stCache{}, opt)
	if err != nil {
		return nil, err
	}
	return &AlphaResult{Result: *r.result(), Successful: true}, nil
}

// alphaValuesSlots computes ᾱ(d, ū, v̄) for a body slot environment, in
// d.Exists order, appending into out. FreshAlpha — the canonical hot path —
// is served through its memo directly, with keys assembled from the slot
// environment: justificationKeySlots emits byte-for-byte the prefix of
// Justification.Key, so the memo stays interchangeable with Key()-based
// lookups (callers read alpha.Memo by Justification.Key after Canonical).
func alphaValuesSlots(a Alpha, d *dependency.TGD, env []instance.Value, out []instance.Value) []instance.Value {
	out = out[:0]
	if fa, ok := a.(*FreshAlpha); ok {
		base := justificationKeySlots(d, env)
		for _, z := range d.Exists {
			k := base + z
			v, ok := fa.Memo[k]
			if !ok {
				v = fa.Nulls.Fresh()
				fa.Memo[k] = v
			}
			out = append(out, v)
		}
		return out
	}
	xs, ys := d.XSlots(), d.YSlots()
	u := make([]instance.Value, len(xs))
	for i, sl := range xs {
		u[i] = env[sl]
	}
	v := make([]instance.Value, len(ys))
	for i, sl := range ys {
		v[i] = env[sl]
	}
	for _, z := range d.Exists {
		out = append(out, a.Value(Justification{Dep: d.Name, U: u, V: v, Z: z}))
	}
	return out
}

// Canonical computes a canonical successful α-chase of the source instance,
// returning its result and the α it settled on.
//
// A fresh-null α alone does not work in the presence of egds: after an egd
// merges two α-values, the heads instantiated with the original values are
// "missing" again and the tgds refire forever — exactly the α3 phenomenon of
// Example 4.4. Canonical therefore iterates fixed-α chases: it runs the
// chase, records which nulls the egds merged, rewrites the memoized α-values
// through those merges, and restarts from the source, until a run completes
// without any egd application. That final run is a genuine successful
// α-chase (Lemma 4.5's observation that successful chases apply only tgds
// holds by construction), and its result is a CWA-presolution for the
// settled α.
//
// For settings whose target dependencies are egds only, or egds plus full
// tgds, the settled result is CanSol_D(S), the canonical maximal
// CWA-solution of Proposition 5.4.
func Canonical(s *dependency.Setting, src *instance.Instance, opt Options) (*AlphaResult, *FreshAlpha, error) {
	alpha := NewFreshAlpha(instance.NewNullSource(0))
	budget := opt.maxSteps()
	total := 0
	// One stCache across all restarts: every restart clones the same source,
	// and σ-atoms never change during a run (heads are over τ; egds only
	// replace nulls, which the null-free source atoms never mention), so the
	// σ-reduct and the s-t body matches are constants of the whole loop.
	stc := &stCache{}
	for {
		if total >= budget {
			return nil, nil, ErrBudgetExceeded
		}
		run := opt
		run.MaxSteps = budget - total
		r, err := chaseWith(s, src, firing{alpha: alpha}, settleAlpha{alpha}, stc, run)
		if err != nil {
			return nil, nil, err
		}
		total += r.steps
		if r.merges > 0 {
			continue // α changed; replay from the source with the settled α
		}
		res := &AlphaResult{Result: *r.result(), Successful: true}
		res.Steps = total
		return res, alpha, nil
	}
}

// settleAlpha is Canonical's observer: when an egd replaces loser by
// winner, every memoized α-value loser becomes winner, so the rest of the
// run and the next restart chase with the merged α.
type settleAlpha struct{ *FreshAlpha }

func (settleAlpha) TGDFired(*dependency.TGD, []instance.Atom, []instance.Atom) {}

func (a settleAlpha) EgdApplied(_ string, winner, loser instance.Value) {
	for k, v := range a.Memo {
		if v == loser {
			a.Memo[k] = winner
		}
	}
}

// CWAPresolution computes the canonical CWA-presolution: the target reduct
// of Canonical's successful α-chase, together with the settled α.
func CWAPresolution(s *dependency.Setting, src *instance.Instance, opt Options) (*instance.Instance, *FreshAlpha, error) {
	res, alpha, err := Canonical(s, src, opt)
	if err != nil {
		return nil, nil, err
	}
	return res.Target, alpha, nil
}
