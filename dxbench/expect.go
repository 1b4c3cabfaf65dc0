package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"repro/internal/certain"
	"repro/internal/chase"
	"repro/internal/cwa"
	"repro/internal/dependency"
	"repro/internal/hom"
	"repro/internal/instance"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/score"
	"repro/internal/server/api"
	"repro/internal/status"
)

// certainSemantics maps wire names to the library's semantics.
var certainSemantics = map[string]certain.Semantics{
	"certain-cap": certain.CertainCap,
	"certain-cup": certain.CertainCup,
	"maybe-cap":   certain.MaybeCap,
	"maybe-cup":   certain.MaybeCup,
}

// parsed is a scenario's inputs in library form.
type parsed struct {
	setting *dependency.Setting
	states  [2]*instance.Instance // registered source, source plus batch
}

// expectation is the in-process answer a response must match.
type expectation struct {
	status  int
	answers [][]string         // certain
	inst    *instance.Instance // chase, core, cansol
	exists  bool
}

// oracle computes and memoizes expectations with the library calls each
// endpoint wraps, from the same generated inputs the server receives.
type oracle struct {
	p      *plan
	parsed []*parsed
	memo   map[string]*expectation
	// verified holds, per expectation key, a response body already checked
	// against it: cached responses repeat byte-identically, so later ones
	// compare by bytes.
	verified map[string][]byte
}

func newOracle(p *plan) (*oracle, error) {
	o := &oracle{p: p, memo: map[string]*expectation{}, verified: map[string][]byte{}}
	for _, s := range p.Scenarios {
		ps, err := parseScen(s)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		o.parsed = append(o.parsed, ps)
	}
	return o, nil
}

func parseScen(s scen) (*parsed, error) {
	st, err := parser.ParseSetting(s.Setting)
	if err != nil {
		return nil, err
	}
	src, err := parser.ParseInstance(s.Source)
	if err != nil {
		return nil, err
	}
	ps := &parsed{setting: st, states: [2]*instance.Instance{src, src}}
	if s.Batch != "" {
		b, err := parser.ParseInstance(s.Batch)
		if err != nil {
			return nil, err
		}
		ps.states[1] = instance.Union(src, b)
	}
	return ps, nil
}

// parseQuery accepts a UCQ or an FO query, like the server.
func parseQuery(text string) (query.Evaluable, error) {
	if u, err := parser.ParseUCQ(text); err == nil {
		return u, nil
	}
	return parser.ParseFOQuery(text)
}

// expKey identifies the expectation of a read: the variable suffix of the
// query does not change its answers.
func expKey(o op) string {
	return fmt.Sprintf("%d/%d/%s/%s/%d", o.Scen, o.State, o.Kind, o.Sem, o.QT)
}

// expect returns the expectation of read op o.
func (or *oracle) expect(o op) (*expectation, error) {
	k := expKey(o)
	if e, ok := or.memo[k]; ok {
		return e, nil
	}
	ps := or.parsed[o.Scen]
	src := ps.states[o.State]
	e := &expectation{status: http.StatusOK}
	var err error
	switch o.Kind {
	case "certain":
		var q query.Evaluable
		if q, err = parseQuery(o.Query); err != nil {
			return nil, err
		}
		var ans *query.TupleSet
		ans, err = certain.Answers(ps.setting, q, src, certainSemantics[o.Sem], certain.Options{Workers: 1})
		if err == nil {
			e.answers = sortedAnswers(ans)
		}
	case "chase":
		var r *chase.Result
		if r, err = chase.Standard(ps.setting, src, chase.Options{}); err == nil {
			e.inst = r.Target
		}
	case "core":
		var r *chase.Result
		if r, err = chase.Standard(ps.setting, src, chase.Options{}); err == nil {
			e.inst = score.Core(r.Target)
		}
	case "cansol":
		e.inst, err = cwa.CanSol(ps.setting, src, chase.Options{})
	case "exists":
		e.exists, err = cwa.Exists(ps.setting, src, chase.Options{})
	default:
		return nil, fmt.Errorf("no read expectation for kind %q", o.Kind)
	}
	if err != nil {
		e.status = status.Classify(err).HTTPStatus()
	}
	or.memo[k] = e
	return e, nil
}

// sortedAnswers renders a tuple set the way /v1/certain does: string
// tuples in lexicographic order.
func sortedAnswers(ts *query.TupleSet) [][]string {
	out := make([][]string, 0, ts.Len())
	for _, t := range ts.Tuples() {
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = v.String()
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return out
}

// checkPlan computes every expectation up front and checks that each op's
// expected status agrees with the library: the plan's refusal class must be
// exactly what the library refuses.
func (or *oracle) checkPlan() error {
	for _, ops := range [][]op{or.p.Warmup, or.p.Ops} {
		for _, o := range ops {
			if o.Class == classWrite {
				continue
			}
			e, err := or.expect(o)
			if err != nil {
				return fmt.Errorf("op %d: %w", o.ID, err)
			}
			if e.status != o.Want {
				return fmt.Errorf("op %d (%s %s on %s): library gives status %d, plan expects %d",
					o.ID, o.Kind, o.Sem, or.p.Scenarios[o.Scen].Name, e.status, o.Want)
			}
		}
	}
	return nil
}

// verify checks one response against op o's expected outcome. It returns
// nil when the status, the X-Cache header and the decoded body all match.
func (or *oracle) verify(o op, code int, xcache string, body []byte) error {
	if code != o.Want {
		return fmt.Errorf("op %d: status %d, want %d: %s", o.ID, code, o.Want, bytes.TrimSpace(body))
	}
	if o.Cache != "" && xcache != o.Cache {
		return fmt.Errorf("op %d: X-Cache %q, want %q", o.ID, xcache, o.Cache)
	}
	s := or.p.Scenarios[o.Scen]
	if o.Class == classWrite {
		var r api.MutateResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("op %d: %w", o.ID, err)
		}
		want := api.MutateResponse{Scenario: s.Name, Version: o.Base + uint64(s.BatchAtoms)}
		if o.Kind == "insert" {
			want.Inserted = s.BatchAtoms
		} else {
			want.Deleted = s.BatchAtoms
		}
		if r.Scenario != want.Scenario || r.Version != want.Version || r.Inserted != want.Inserted ||
			r.Deleted != want.Deleted || r.NoSolution {
			return fmt.Errorf("op %d: mutation response %+v, want %+v", o.ID, r, want)
		}
		return nil
	}
	if code != http.StatusOK {
		var env api.Error
		if err := json.Unmarshal(body, &env); err != nil {
			return fmt.Errorf("op %d: error body: %w", o.ID, err)
		}
		if env.Err.Code != "too_large" {
			return fmt.Errorf("op %d: error code %q, want too_large", o.ID, env.Err.Code)
		}
		return nil
	}
	// A cached body is byte-identical to the one it was computed as, so
	// only the first body per expectation and query text is decoded.
	vk := verifiedKey(o)
	if prev, ok := or.verified[vk]; ok && bytes.Equal(prev, body) {
		return nil
	}
	e, err := or.expect(o)
	if err != nil {
		return err
	}
	if err := checkBody(o, s.Name, e, body); err != nil {
		return fmt.Errorf("op %d (%s on %s): %w", o.ID, o.Kind, s.Name, err)
	}
	or.verified[vk] = append([]byte(nil), body...)
	return nil
}

// verifiedKey names the body a read must repeat byte for byte once one
// body for it has been verified.
func verifiedKey(o op) string { return expKey(o) + "/" + o.Query }

func checkBody(o op, name string, e *expectation, body []byte) error {
	switch o.Kind {
	case "certain":
		var r api.CertainResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Scenario != name || r.Semantics != o.Sem || r.Query != o.Query {
			return fmt.Errorf("echo fields %q %q %q", r.Scenario, r.Semantics, r.Query)
		}
		if !equalAnswers(r.Answers, e.answers) {
			return fmt.Errorf("answers %v, want %v", r.Answers, e.answers)
		}
	case "exists":
		var r api.ExistsResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Scenario != name || r.Exists != e.exists {
			return fmt.Errorf("exists response %+v, want %v", r, e.exists)
		}
	case "chase":
		var r api.ChaseResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		return checkInstance(r.Universal, r.Atoms, e.inst, hom.HomEquivalent)
	case "core", "cansol":
		var r api.InstanceResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Scenario != name {
			return fmt.Errorf("scenario %q", r.Scenario)
		}
		return checkInstance(r.Instance, r.Atoms, e.inst, hom.Isomorphic)
	}
	return nil
}

// checkInstance parses a returned instance and compares it with the
// expected one: cores and canonical solutions are unique up to null
// renaming, chase results up to homomorphic equivalence.
func checkInstance(text string, atoms int, want *instance.Instance, same func(a, b *instance.Instance) bool) error {
	got, err := parser.ParseInstance(text)
	if err != nil {
		return err
	}
	if got.Len() != atoms || !same(got, want) {
		return fmt.Errorf("instance %q (%d atoms) differs from expected %q", text, atoms, parser.FormatInstance(want))
	}
	return nil
}

func equalAnswers(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
