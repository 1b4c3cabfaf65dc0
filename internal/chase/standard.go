package chase

import (
	"context"
	"fmt"

	"repro/internal/dependency"
	"repro/internal/instance"
	"repro/internal/query"
)

// Options configures a chase run.
type Options struct {
	// MaxSteps bounds the number of dependency applications; 0 means
	// DefaultMaxSteps. A chase that exceeds the budget returns
	// ErrBudgetExceeded, the observable proxy for non-termination.
	MaxSteps int
	// Trace, when true, records every step in Result.Trace.
	Trace bool
	// Ctx, when non-nil, lets the run be aborted by deadline or
	// cancellation: the chase checks it between steps and returns an error
	// wrapping ErrCanceled. Essential for bounding runs on settings whose
	// chase need not terminate (Theorem 6.2). A nil Ctx never cancels.
	Ctx context.Context
}

// err reports the pending cancellation of the run's context, if any.
func (o Options) err() error { return ContextErr(o.Ctx) }

// DefaultMaxSteps is the budget used when Options.MaxSteps is zero.
const DefaultMaxSteps = 1_000_000

func (o Options) maxSteps() int {
	if o.MaxSteps > 0 {
		return o.MaxSteps
	}
	return DefaultMaxSteps
}

// Step records one chase step for traces.
type Step struct {
	Dep string
	// Kind is "tgd" or "egd".
	Kind string
	// Added holds the atoms added by a tgd step.
	Added []instance.Atom
	// Equated holds the two values identified by an egd step.
	Equated [2]instance.Value
}

func (s Step) String() string {
	if s.Kind == "egd" {
		return fmt.Sprintf("egd %s: %v = %v", s.Dep, s.Equated[0], s.Equated[1])
	}
	return fmt.Sprintf("tgd %s: +%v", s.Dep, s.Added)
}

// Result is the outcome of a terminating chase.
type Result struct {
	// Instance is the final instance over σ ∪ τ (source atoms included).
	Instance *instance.Instance
	// Target is the τ-reduct of Instance: the computed target instance.
	Target *instance.Instance
	// Steps counts dependency applications.
	Steps int
	// Trace holds the steps if Options.Trace was set.
	Trace []Step
}

// Standard runs the standard chase of Fagin et al. on the source instance:
// starting from S, it repeatedly picks a tgd violation (a body match with no
// witnessing head extension), fires it with fresh nulls, and resolves egd
// violations, until a fixpoint. For weakly acyclic settings it terminates in
// polynomially many steps and its target reduct is a universal solution
// (when no egd fails).
func Standard(s *dependency.Setting, src *instance.Instance, opt Options) (*Result, error) {
	r, err := NewResumable(s, src, opt, nil)
	if r == nil {
		// Egd failure or invalid source: no partial state to expose.
		return nil, err
	}
	// On budget/cancel errors the partial result is exposed so callers can
	// observe how far a non-terminating chase got (experiment E8).
	return r.result(), err
}

// stCache holds the per-run constants of a chase: the σ-reduct and the body
// matches of every s-t tgd. Both are fixed for the whole run — dependency
// heads are over τ, so no chase step adds a source atom, and egd
// applications only replace nulls, which the null-free source atoms never
// mention — and are computed lazily on the first full scan.
type stCache struct {
	reduct *instance.Instance
	conj   map[*dependency.TGD][][]instance.Value
	fo     map[*dependency.TGD][]query.Binding
}

func (c *stCache) bodyInst(s *dependency.Setting, cur *instance.Instance) *instance.Instance {
	if c.reduct == nil {
		c.reduct = cur.Reduct(s.Source)
	}
	return c.reduct
}

// conjEnvs returns the (constant) body slot environments of a conjunctive
// s-t tgd. The environments are shared — callers must not modify them.
func (c *stCache) conjEnvs(s *dependency.Setting, d *dependency.TGD, cur *instance.Instance) [][]instance.Value {
	if envs, ok := c.conj[d]; ok {
		return envs
	}
	var envs [][]instance.Value
	d.BodyPlan().Eval(c.bodyInst(s, cur), nil, func(env []instance.Value) bool {
		envs = append(envs, append([]instance.Value(nil), env...))
		return true
	})
	if c.conj == nil {
		c.conj = make(map[*dependency.TGD][][]instance.Value)
	}
	c.conj[d] = envs
	return envs
}

// foEnvs returns the (constant) body bindings of an s-t tgd with a general
// first-order body. The bindings are shared — callers must not modify them.
func (c *stCache) foEnvs(s *dependency.Setting, d *dependency.TGD, cur *instance.Instance) []query.Binding {
	if envs, ok := c.fo[d]; ok {
		return envs
	}
	var envs []query.Binding
	bodyBindings(d, c.bodyInst(s, cur), func(env query.Binding) bool {
		envs = append(envs, env.Clone())
		return true
	})
	if c.fo == nil {
		c.fo = make(map[*dependency.TGD][]query.Binding)
	}
	c.fo[d] = envs
	return envs
}

// UniversalSolution chases the source instance and returns the target
// reduct, which is a universal solution for weakly acyclic settings. The
// error is an *EgdFailureError when no solution exists, or
// ErrBudgetExceeded when the chase did not terminate within the budget.
func UniversalSolution(s *dependency.Setting, src *instance.Instance, opt Options) (*instance.Instance, error) {
	res, err := Standard(s, src, opt)
	if err != nil {
		return nil, err
	}
	return res.Target, nil
}
