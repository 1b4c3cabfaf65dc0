package chase

// Reference oracles for the firing policies of the one chase loop
// (Resumable.run). These are the α-chase, canonical α-chase and oblivious
// chase engines as they stood before they became policies: each its own
// fixpoint loop with full (non-semi-naive) passes. They are kept verbatim,
// renamed, so the differential test in policy_diff_test.go can compare
// the policy-driven loop against them.

import (
	"fmt"

	"repro/internal/dependency"
	"repro/internal/instance"
	"repro/internal/metrics"
	"repro/internal/query"
)

func oracleAlphaChase(s *dependency.Setting, src *instance.Instance, a Alpha, opt Options) (*AlphaResult, error) {
	if src.HasNulls() {
		return nil, fmt.Errorf("chase: source instance must be null-free")
	}
	cur := src.Clone()
	res := &AlphaResult{}
	budget := opt.maxSteps()
	stc := &stCache{}

	for {
		if err := opt.err(); err != nil {
			return nil, err
		}
		if res.Steps >= budget {
			return nil, ErrBudgetExceeded
		}
		if applied, err := oracleEgdPass(s, cur, &res.Result, opt); err != nil {
			return nil, err
		} else if applied {
			continue
		}
		if applied := oracleAlphaPass(s, cur, a, &res.Result, opt, stc); applied {
			continue
		}
		break
	}
	res.Instance = cur
	res.Target = cur.Reduct(s.Target)
	res.Successful = true
	return res, nil
}

func oracleAlphaApplicable(d *dependency.TGD, cur *instance.Instance, a Alpha, env query.Binding) ([]instance.Atom, bool) {
	full := env.Clone()
	for z, v := range alphaTuple(a, d, env) {
		full[z] = v
	}
	atoms := headAtomsUnder(d, full)
	missing := false
	for _, at := range atoms {
		if !cur.Has(at) {
			missing = true
			break
		}
	}
	return atoms, missing
}

func oracleAlphaPass(s *dependency.Setting, cur *instance.Instance, a Alpha, res *Result, opt Options, stc *stCache) bool {
	budget := opt.maxSteps()
	fired := false
	var vals, full []instance.Value
	for _, d := range s.AllTGDs() {
		if d.BodyAtoms == nil {
			var pending []query.Binding
			for _, env := range stc.foEnvs(s, d, cur) {
				if _, applicable := oracleAlphaApplicable(d, cur, a, env); applicable {
					pending = append(pending, env)
				}
			}
			for _, env := range pending {
				if res.Steps >= budget || opt.err() != nil {
					return true
				}
				atoms, applicable := oracleAlphaApplicable(d, cur, a, env)
				if !applicable {
					continue
				}
				for _, at := range atoms {
					cur.Add(at)
				}
				res.Steps++
				metrics.ChaseSteps.Inc()
				fired = true
				if opt.Trace {
					res.Trace = append(res.Trace, Step{Dep: d.Name, Kind: "tgd", Added: atoms})
				}
			}
			continue
		}

		hp := d.HeadSlotsPlan()
		if cap(full) < hp.NumSlots() {
			full = make([]instance.Value, hp.NumSlots())
		}
		fullEnv := full[:hp.NumSlots()]
		tmpl := d.HeadTemplates()
		zslots := d.ExistsSlots()
		applicable := func(env []instance.Value) bool {
			vals = alphaValuesSlots(a, d, env, vals)
			copy(fullEnv, env)
			for i, sl := range zslots {
				fullEnv[sl] = vals[i]
			}
			return !tmpl.AllPresent(cur, fullEnv)
		}
		var pending [][]instance.Value
		if oracleIsST(s, d) {
			for _, env := range stc.conjEnvs(s, d, cur) {
				if applicable(env) {
					pending = append(pending, env)
				}
			}
		} else {
			d.BodyPlan().Eval(cur, nil, func(env []instance.Value) bool {
				if applicable(env) {
					pending = append(pending, append([]instance.Value(nil), env...))
				}
				return true
			})
		}
		for _, env := range pending {
			if res.Steps >= budget || opt.err() != nil {
				return true
			}
			if !applicable(env) {
				continue
			}
			atoms := tmpl.Instantiate(fullEnv)
			for _, at := range atoms {
				cur.Add(at)
			}
			res.Steps++
			metrics.ChaseSteps.Inc()
			fired = true
			if opt.Trace {
				res.Trace = append(res.Trace, Step{Dep: d.Name, Kind: "tgd", Added: atoms})
			}
		}
	}
	return fired
}

func oracleCanonical(s *dependency.Setting, src *instance.Instance, opt Options) (*AlphaResult, *FreshAlpha, error) {
	if src.HasNulls() {
		return nil, nil, fmt.Errorf("chase: source instance must be null-free")
	}
	alpha := NewFreshAlpha(instance.NewNullSource(0))
	budget := opt.maxSteps()
	totalSteps := 0
	stc := &stCache{}

	for {
		cur := src.Clone()
		res := &AlphaResult{}
		merged := false
	run:
		for {
			if err := opt.err(); err != nil {
				return nil, nil, err
			}
			if totalSteps+res.Steps >= budget {
				return nil, nil, ErrBudgetExceeded
			}
			for _, d := range s.EGDs {
				a, b, ok := findEgdViolation(d, cur)
				if !ok {
					continue
				}
				winner, loser, err := applyEgd(d.Name, cur, a, b)
				if err != nil {
					return nil, nil, err
				}
				for k, v := range alpha.Memo {
					if v == loser {
						alpha.Memo[k] = winner
					}
				}
				res.Steps++
				metrics.ChaseSteps.Inc()
				merged = true
				if opt.Trace {
					res.Trace = append(res.Trace, Step{Dep: d.Name, Kind: "egd", Equated: [2]instance.Value{a, b}})
				}
				continue run
			}
			if oracleAlphaPass(s, cur, alpha, &res.Result, opt, stc) {
				continue
			}
			break
		}
		totalSteps += res.Steps
		if merged {
			continue
		}
		res.Instance = cur
		res.Target = cur.Reduct(s.Target)
		res.Successful = true
		res.Steps = totalSteps
		return res, alpha, nil
	}
}

func oracleOblivious(s *dependency.Setting, src *instance.Instance, opt Options) (*Result, error) {
	if src.HasNulls() {
		return nil, fmt.Errorf("chase: source instance must be null-free")
	}
	cur := src.Clone()
	nulls := instance.NewNullSource(0)
	res := &Result{}
	budget := opt.maxSteps()
	fired := make(map[string]bool)

	for {
		if err := opt.err(); err != nil {
			res.Instance = cur
			res.Target = cur.Reduct(s.Target)
			return res, err
		}
		if res.Steps >= budget {
			res.Instance = cur
			res.Target = cur.Reduct(s.Target)
			return res, ErrBudgetExceeded
		}
		if applied, err := oracleEgdPass(s, cur, res, opt); err != nil {
			return nil, err
		} else if applied {
			continue
		}
		applied := false
		for _, d := range s.AllTGDs() {
			bodyInst := tgdBodyInstance(s, d, cur)
			var pending []query.Binding
			bodyBindings(d, bodyInst, func(env query.Binding) bool {
				if !fired[oracleTriggerKey(d, env)] {
					pending = append(pending, env.Clone())
				}
				return true
			})
			for _, env := range pending {
				if res.Steps >= budget || opt.err() != nil {
					break
				}
				key := oracleTriggerKey(d, env)
				if fired[key] {
					continue
				}
				fired[key] = true
				for _, z := range d.Exists {
					env[z] = nulls.Fresh()
				}
				added := headAtomsUnder(d, env)
				for _, a := range added {
					cur.Add(a)
				}
				res.Steps++
				metrics.ChaseSteps.Inc()
				applied = true
				if opt.Trace {
					res.Trace = append(res.Trace, Step{Dep: d.Name, Kind: "tgd", Added: added})
				}
			}
		}
		if !applied {
			if err := opt.err(); err != nil {
				res.Instance = cur
				res.Target = cur.Reduct(s.Target)
				return res, err
			}
			break
		}
	}
	res.Instance = cur
	res.Target = cur.Reduct(s.Target)
	return res, nil
}

func oracleTriggerKey(d *dependency.TGD, env query.Binding) string {
	j := JustificationOf(d, env, "")
	return j.Key()
}

func oracleEgdPass(s *dependency.Setting, cur *instance.Instance, res *Result, opt Options) (bool, error) {
	for _, d := range s.EGDs {
		a, b, ok := findEgdViolation(d, cur)
		if !ok {
			continue
		}
		if _, _, err := applyEgd(d.Name, cur, a, b); err != nil {
			return false, err
		}
		res.Steps++
		metrics.ChaseSteps.Inc()
		if opt.Trace {
			res.Trace = append(res.Trace, Step{Dep: d.Name, Kind: "egd", Equated: [2]instance.Value{a, b}})
		}
		return true, nil
	}
	return false, nil
}

func oracleIsST(s *dependency.Setting, d *dependency.TGD) bool {
	for _, st := range s.ST {
		if st == d {
			return true
		}
	}
	return false
}
