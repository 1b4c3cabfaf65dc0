package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"

	"repro/internal/genwl"
	"repro/internal/parser"
	"repro/internal/server/api"
)

// Operation classes. Latency percentiles are computed per class, never over
// a mixed distribution.
const (
	classCertain  = "certain"  // /v1/certain answered 200
	classInstance = "instance" // /v1/chase, /v1/core, /v1/cansol, /v1/exists
	classWrite    = "write"    // source insert/delete batches
	classRefusal  = "refusal"  // /v1/certain requests the server refuses with 413 today
)

var classes = []string{classCertain, classInstance, classWrite, classRefusal}

// hrSetting is the schema-migration scenario of testdata/hr.dx: two keys
// (egds) plus a tgd. Its egds send deletions to the incremental engine's
// fallback re-chase.
const hrSetting = `source Emp/3, DeptMgr/2.
target Employee/2, Dept/2, WorksIn/2, Manages/2.
st:
  emp: Emp(n,d,b) -> exists i : Employee(n,b) & Dept(i,d) & WorksIn(n,i).
  mgr: DeptMgr(d,m) -> exists i : Dept(i,d) & Manages(m,i).
target-deps:
  deptKey: Dept(i,d) & Dept(j,d) -> i = j.
  mgrKey:  Manages(m,i) & Manages(n,i) -> m = n.
  mgrWorks: Manages(m,i) -> WorksIn(m,i).
`

// family is a scenario shape. Every instance of a family has the same
// setting and differs only in constant names, so requests against it have
// near-uniform cost.
type family struct {
	name    string
	setting string
	// source renders the source instance over constants tagged with t.
	source func(t string) string
	// batch renders the tuples a write inserts and then deletes again.
	batch func(t string) string
	// queries are query templates; %[1]s is a variable suffix that makes a
	// request's result key unique without changing its answers.
	queries []string
}

var families = map[string]family{
	// The HR migration with two departments: two nulls after the core.
	"hr": hrFamily("hr", 2, 2),
	// Depth-3 chains with two edges; writes take the incremental delta path.
	"chain3": chainFamily("chain3", 3, 2),
	// A null-free copy of the source: the cheapest certain read there is.
	"copy": {
		name:    "copy",
		setting: "source S/1.\ntarget T/1.\nst:\n  copy: S(x) -> T(x).\n",
		source:  func(t string) string { return fmt.Sprintf("S(a%[1]s). S(b%[1]s).", t) },
		queries: []string{"q(x%[1]s) :- T(x%[1]s)."},
	},
	// The refusal class.
	"chain8":  refusalFamily(8),
	"chain12": refusalFamily(12),
	"chain16": refusalFamily(16),
}

// hrFamily is the HR migration over depts departments of emps employees
// each (the first one manages it). Its batch hires one more employee into
// every department, which the department key egd merges into the
// existing department null.
func hrFamily(name string, depts, emps int) family {
	return family{
		name:    name,
		setting: hrSetting,
		source: func(t string) string {
			s := ""
			for d := 0; d < depts; d++ {
				for e := 0; e < emps; e++ {
					s += fmt.Sprintf("Emp(e%d_%d%s,d%d%s,g%d). ", d, e, t, d, t, e%2)
				}
				s += fmt.Sprintf("DeptMgr(d%d%s,e%d_0%s). ", d, t, d, t)
			}
			return s
		},
		batch: func(t string) string {
			s := ""
			for d := 0; d < depts; d++ {
				s += fmt.Sprintf("Emp(new%d%s,d%d%s,g0). ", d, t, d, t)
			}
			return s
		},
		queries: []string{
			"q(n%[1]s,d%[1]s) :- WorksIn(n%[1]s,i%[1]s), Dept(i%[1]s,d%[1]s).",
			"(n%[1]s) . exists i%[1]s (WorksIn(n%[1]s,i%[1]s) & !Manages(n%[1]s,i%[1]s))",
		},
	}
}

// chainFamily is genwl.WeaklyAcyclicChain(depth) over a path of edges R0
// facts. Its batch is one more edge, disjoint from the path.
func chainFamily(name string, depth, edges int) family {
	return family{
		name:    name,
		setting: parser.FormatSetting(genwl.WeaklyAcyclicChain(depth)),
		source: func(t string) string {
			s := ""
			for i := 0; i < edges; i++ {
				s += fmt.Sprintf("R0(n%d%s,n%d%s). ", i, t, i+1, t)
			}
			return s
		},
		batch: func(t string) string {
			return fmt.Sprintf("R0(m0%[1]s,m1%[1]s).", t)
		},
		queries: []string{
			"q(x%[1]s,y%[1]s) :- T1(x%[1]s,y%[1]s).",
			"q(x%[1]s,y%[1]s) :- T2(x%[1]s,y%[1]s).",
		},
	}
}

// refusalFamily is genwl.WeaklyAcyclicChain(depth) over three edges: far
// more nulls than the Rep walk accepts, so certain-cup is refused with 413
// although Theorem 7.6 puts pure UCQs in PTIME.
func refusalFamily(depth int) family {
	f := chainFamily(fmt.Sprintf("chain%d", depth), depth, 3)
	f.queries = f.queries[:1]
	f.batch = nil
	return f
}

// scen is one scenario of a plan.
type scen struct {
	Name    string `json:"name"`
	Family  string `json:"family"`
	Setting string `json:"setting"`
	Source  string `json:"source"`
	Batch   string `json:"batch,omitempty"`
	// BatchAtoms is the number of atoms in Batch: each write moves the
	// scenario version by this much.
	BatchAtoms int `json:"batch_atoms,omitempty"`
	// Client owns the scenario; ops of the other client never name it.
	Client int `json:"client"`
}

// op is one request. Kind selects the endpoint; the expected response is a
// function of (scenario, state, kind, semantics, query template).
type op struct {
	ID     int    `json:"id"`
	Client int    `json:"client"`
	Class  string `json:"class"`
	Kind   string `json:"kind"` // certain chase core cansol exists insert delete
	Scen   int    `json:"scen"`
	Sem    string `json:"sem,omitempty"`
	QT     int    `json:"qt,omitempty"` // query template index
	Query  string `json:"query,omitempty"`
	// State is the scenario source the op observes: 0 the registered one,
	// 1 the registered one plus the batch.
	State int `json:"state"`
	// Base is the base_version a write pins, so no 409 can occur.
	Base uint64 `json:"base,omitempty"`
	// Node is the index of the server process the request is sent to.
	Node int `json:"node"`
	// Want is the expected HTTP status; Cache the expected X-Cache header.
	Want  int    `json:"want"`
	Cache string `json:"cache,omitempty"`
}

// plan is everything a run sends. It is a pure function of
// (workload, seed, seconds): generating it twice gives byte-identical
// JSON.
type plan struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	Nodes     int    `json:"nodes"`
	Durable   bool   `json:"durable"`
	Scenarios []scen `json:"scenarios"`
	// Warmup is sent before the timed phase, in the same way; it is
	// verified but not timed.
	Warmup []op `json:"warmup"`
	// Ops is the timed schedule; each client sends its own ops in ID order.
	// The two clients have equally many ops, and the n-th op of each has
	// the same class, endpoint, semantics and scenario family.
	Ops []op `json:"ops"`
}

// workloads maps each workload name to its generator. Why each exists is
// recorded in BENCHMARK.json and README.md.
var workloads = map[string]func(g *gen){
	"cold-query":      func(g *gen) { genColdQuery(g, 12) },
	"mutate-read":     genMutateRead,
	"forwarded-query": genForwardedQuery,
}

// gen accumulates a plan.
type gen struct {
	p   *plan
	rng *rand.Rand
}

func (g *gen) addScen(f family, client int) int {
	i := len(g.p.Scenarios)
	t := "_" + strconv.Itoa(i)
	s := scen{
		Name:    scenName(f.name, i),
		Family:  f.name,
		Setting: f.setting,
		Source:  f.source(t),
		Client:  client,
	}
	if f.batch != nil {
		s.Batch = f.batch(t)
		ins, err := parser.ParseInstance(s.Batch)
		if err != nil {
			panic(err)
		}
		s.BatchAtoms = ins.Len()
	}
	g.p.Scenarios = append(g.p.Scenarios, s)
	return i
}

// scenName is the name the plan gives scenario i of family fam.
func scenName(fam string, i int) string { return fmt.Sprintf("%s-%d", fam, i) }

// read returns a read op of the given kind against scenario i.
func (g *gen) read(class, kind string, i int, sem string, qt int, sfx string) op {
	o := op{Class: class, Kind: kind, Scen: i, Client: g.p.Scenarios[i].Client, Want: http.StatusOK}
	if kind == "certain" {
		o.Sem, o.QT = sem, qt
		o.Query = fmt.Sprintf(families[g.p.Scenarios[i].Family].queries[qt], sfx)
	}
	if class == classRefusal {
		o.Want = http.StatusRequestEntityTooLarge
	}
	return o
}

// writer tracks the alternating insert/delete sequence of one scenario.
type writer struct {
	scen    int
	version uint64
	state   int
}

// write returns the next write op of w: the batch is inserted when the
// scenario is in state 0 and deleted when it is in state 1.
func (g *gen) write(w *writer) op {
	s := g.p.Scenarios[w.scen]
	kind := "insert"
	if w.state == 1 {
		kind = "delete"
	}
	o := op{Class: classWrite, Kind: kind, Scen: w.scen, Client: s.Client, State: 1 - w.state, Base: w.version, Want: http.StatusOK}
	w.version += uint64(s.BatchAtoms)
	w.state = 1 - w.state
	return o
}

// initialVersion is the version a freshly registered source carries: one
// per source atom.
func initialVersion(s scen) uint64 {
	ins, err := parser.ParseInstance(s.Source)
	if err != nil {
		panic(err)
	}
	return ins.Version()
}

// semantics lists the four certain-answer semantics of Section 7.1.
var semantics = []string{"certain-cap", "certain-cup", "maybe-cap", "maybe-cup"}

// combo is a (semantics, query template) pair.
type combo struct {
	sem string
	qt  int
}

// writersFor registers n write-only scenarios of family f per client; the
// read-only workloads write to them so every workload carries every op
// class, without touching the scenarios their reads observe.
func (g *gen) writersFor(f family, n int) [2][]*writer {
	var ws [2][]*writer
	for c := 0; c < 2; c++ {
		for k := 0; k < n; k++ {
			i := g.addScen(f, c)
			ws[c] = append(ws[c], &writer{scen: i, version: initialVersion(g.p.Scenarios[i])})
		}
	}
	return ws
}

// finish numbers the per-client schedules into p.Ops.
func (g *gen) finish(sched [2][]op) {
	for c := 0; c < 2; c++ {
		for _, o := range sched[c] {
			o.ID = len(g.p.Ops)
			o.Client = c
			g.p.Ops = append(g.p.Ops, o)
		}
	}
}

// genForwardedQuery is the cold-query schedule on a two-member static
// cluster, with every op sent to the member that does not own its
// scenario: each request makes one forward hop, and the difference from
// cold-query is the cost of the cluster layer. Ownership is the ring's
// placement of the scenario name, fixed only once member URLs are known,
// so the plan records "the other member" and the runner resolves it.
func genForwardedQuery(g *gen) {
	genColdQuery(g, 9)
	g.p.Nodes = 2
	for i := range g.p.Ops {
		g.p.Ops[i].Node = nonOwner
	}
}

// nonOwner is the Node value that means "whichever member does not own
// the op's scenario".
const nonOwner = -1

// genColdQuery gives every read a result key no earlier request of the run
// used: certain queries carry a unique variable suffix, and every instance
// read hits a scenario nothing else reads. Each client gets rounds of its
// 25-op mix per nominal second, which on a 2-vCPU VM makes the timed phase
// last about as many seconds as the run was given.
func genColdQuery(g *gen, rounds int) {
	ws := g.writersFor(families["chain3"], 2)
	var hr, refusals [2][]int
	for c := 0; c < 2; c++ {
		for k := 0; k < 4; k++ {
			hr[c] = append(hr[c], g.addScen(families["hr"], c))
		}
		for _, f := range []string{"chain8", "chain12", "chain16"} {
			refusals[c] = append(refusals[c], g.addScen(families[f], c))
		}
	}
	// Per 25 ops: 13 certain reads, 2 instance reads, 5 refusals, 5 writes.
	// One draw per position serves both clients, so op n of each client
	// has the same class, endpoint, semantics and family: the runner sends
	// the two together, and a cheap op never overlaps a dear one.
	const mix = "ccrcwccrcwcicrwccrcwccirw"
	perClient := 25 * rounds * g.p.Seconds
	var sched [2][]op
	for n := 0; n < perClient; n++ {
		var pair [2]op
		switch mix[n%len(mix)] {
		case 'c':
			cb := combo{semantics[g.rng.Intn(4)], g.rng.Intn(2)}
			k := g.rng.Intn(len(hr[0]))
			for c := range pair {
				pair[c] = g.read(classCertain, "certain", hr[c][k], cb.sem, cb.qt, fmt.Sprintf("c%dn%d", c, n))
				pair[c].Cache = "miss"
			}
		case 'i':
			kind := []string{"core", "cansol", "exists"}[g.rng.Intn(3)]
			for c := range pair {
				pair[c] = g.read(classInstance, kind, g.addScen(families["hr"], c), "", 0, "")
				pair[c].Cache = "miss"
			}
		case 'r':
			k := g.rng.Intn(len(refusals[0]))
			for c := range pair {
				pair[c] = g.read(classRefusal, "certain", refusals[c][k], "certain-cup", 0, fmt.Sprintf("c%dn%d", c, n))
			}
		case 'w':
			for c := range pair {
				pair[c] = g.write(ws[c][n%len(ws[c])])
			}
		}
		for c := range pair {
			sched[c] = append(sched[c], pair[c])
		}
	}
	g.finish(sched)
}

// genMutateRead has each client cycle over its own scenarios: a write (an
// insert or delete of the scenario's batch, pinned to the version it
// expects), then reads that miss because the version moved. Chain
// scenarios take the incremental delta path; deleting from an HR
// scenario, with its egds, takes the fallback re-chase.
func genMutateRead(g *gen) {
	g.p.Durable = true
	var ws [2][]*writer
	for c := 0; c < 2; c++ {
		for k := 0; k < 6; k++ {
			f := families["chain3"]
			if k%2 == 1 {
				f = families["hr"]
			}
			i := g.addScen(f, c)
			ws[c] = append(ws[c], &writer{scen: i, version: initialVersion(g.p.Scenarios[i])})
		}
	}
	cycles := 330 * g.p.Seconds
	var sched [2][]op
	var order []int
	for n := 0; n < cycles; n++ {
		// Each round visits every scenario of each client once, in one
		// seeded order for both: the clients' scenario lists have the same
		// families at the same places, so their schedules stay aligned op
		// for op.
		if n%len(ws[0]) == 0 {
			order = g.rng.Perm(len(ws[0]))
		}
		for c := 0; c < 2; c++ {
			w := ws[c][order[n%len(ws[c])]]
			wo := g.write(w)
			core := g.read(classInstance, "core", w.scen, "", 0, "")
			core.State, core.Cache = wo.State, "miss"
			sched[c] = append(sched[c], wo, core)
			// A certain read only after inserts: the larger source makes
			// the Rep walk dearer, and one source size per class keeps its
			// percentiles off the gap between two cost modes.
			if g.p.Scenarios[w.scen].Family == "hr" && wo.State == 1 {
				q := g.read(classCertain, "certain", w.scen, "certain-cup", 0, "")
				q.State, q.Cache = wo.State, "miss"
				sched[c] = append(sched[c], q)
			}
		}
	}
	g.finish(sched)
}

// makePlan generates the plan of a workload.
func makePlan(workload string, seed int64, seconds int) (*plan, error) {
	generate, ok := workloads[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	g := &gen{
		p:   &plan{Workload: workload, Seed: seed, Seconds: seconds, Nodes: 1},
		rng: rand.New(rand.NewSource(seed)),
	}
	generate(g)
	g.warmup()
	return g.p, nil
}

// warmupReads is how many reads each client sends before the timed phase.
// Each creates one result-cache entry on every member it passes through,
// so together they fill the dxserver default bound of 4096 entries.
const warmupReads = 2100

// warmup gives each client a scenario of its own and a run of cheap
// certain reads against it, each with a result key used nowhere else.
func (g *gen) warmup() {
	var sched [2][]op
	for c := 0; c < 2; c++ {
		i := g.addScen(families["copy"], c)
		for n := 0; n < warmupReads; n++ {
			o := g.read(classCertain, "certain", i, "certain-cap", 0, fmt.Sprintf("w%dn%d", c, n))
			o.Cache = "miss"
			if g.p.Nodes > 1 {
				o.Node = nonOwner
			}
			sched[c] = append(sched[c], o)
		}
	}
	for c := 0; c < 2; c++ {
		for _, o := range sched[c] {
			o.ID = len(g.p.Ops) + len(g.p.Warmup)
			o.Client = c
			g.p.Warmup = append(g.p.Warmup, o)
		}
	}
}

// body is the JSON request body of o.
func (p *plan) body(o op) []byte {
	s := p.Scenarios[o.Scen]
	var v any
	switch o.Kind {
	case "insert", "delete":
		v = api.MutateRequest{Tuples: s.Batch, BaseVersion: o.Base}
	default:
		v = api.EvalRequest{Scenario: s.Name, Workers: 1, Query: o.Query, Semantics: o.Sem}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// route is the method and path of o.
func (p *plan) route(o op) (method, path string) {
	switch o.Kind {
	case "insert":
		return http.MethodPost, "/v1/scenarios/" + p.Scenarios[o.Scen].Name + "/source/tuples"
	case "delete":
		return http.MethodDelete, "/v1/scenarios/" + p.Scenarios[o.Scen].Name + "/source/tuples"
	}
	return http.MethodPost, "/v1/" + o.Kind
}
