package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/certain"
	"repro/internal/chase"
	"repro/internal/cluster"
	"repro/internal/cwa"
	"repro/internal/incr"
	"repro/internal/instance"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/score"
	"repro/internal/server"
	"repro/internal/server/api"
	"repro/internal/store"
)

// span is one traced call: a layer boundary the benchmark crossed.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"` // index of the enclosing span, -1 for a root
	Op     int           `json:"op"`     // op id, -1 for registration and set-up spans
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, opID int) int {
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: parent, Op: opID})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = time.Since(t.t0) }

// do runs f inside a span.
func (t *tracer) do(name string, parent, opID int, f func()) {
	id := t.begin(name, parent, opID)
	f()
	t.end(id)
}

// selfTimes returns, per span name, every span's self time: its duration
// minus the part of its interval that its child spans cover.
func (t *tracer) selfTimes() map[string][]time.Duration {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][]time.Duration{}
	for i, s := range t.spans {
		covered := time.Duration(0)
		cs := children[i]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		reach := s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] = append(out[s.Name], s.End-s.Start-covered)
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(fh)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			fh.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// spanCost measures what recording one span costs, so the traced run can
// report its own overhead.
func spanCost() time.Duration {
	const n = 20000
	t := &tracer{t0: time.Now(), spans: make([]span, 0, n)}
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x", -1, i))
	}
	return time.Since(start) / n
}

// replayPerClient bounds the traced replay: the first ops of each client's
// schedule, which cover every class of every workload.
const replayPerClient = 400

// replay holds the in-process state of a traced run.
type replay struct {
	p       *plan
	or      *oracle
	tr      *tracer
	srv     *server.Server
	journal *store.Store         // trace-only store for the WAL append spans
	engines map[int]*incr.Engine // per written scenario
	handler map[string][]time.Duration
}

// tracedReplay replays the plan's distinct inputs in-process: it registers
// the scenarios with an in-process server, then replays a prefix of each client's
// schedule through (*server.Server).ServeHTTP with a recorder, and around
// each request calls the public function of every layer the request runs
// through, one span per call. The spans are written to tracePath.
func tracedReplay(p *plan, or *oracle, dir, tracePath string) (*tracer, map[string][]time.Duration, error) {
	cfg := server.Config{MaxScenarios: 1 << 20, MaxResults: 1 << 20, Workers: 1}
	rp := &replay{p: p, or: or, tr: &tracer{t0: time.Now()}, engines: map[int]*incr.Engine{},
		handler: map[string][]time.Duration{}}
	if p.Durable {
		st, err := store.Open(filepath.Join(dir, "trace-server"), store.Options{Fsync: store.SyncOff})
		if err != nil {
			return nil, nil, err
		}
		cfg.Store = st
		if rp.journal, err = store.Open(filepath.Join(dir, "trace-journal"), store.Options{Fsync: store.SyncOff}); err != nil {
			return nil, nil, err
		}
		defer rp.journal.Close()
	}
	rp.srv = server.New(cfg)
	defer rp.srv.CloseStore()

	for i := range p.Scenarios {
		if err := rp.register(i); err != nil {
			return nil, nil, err
		}
	}
	if p.Nodes > 1 {
		rp.routeKeys()
	}
	var n [2]int
	for _, o := range p.Ops {
		if n[o.Client] >= replayPerClient {
			continue
		}
		n[o.Client]++
		if err := rp.op(o); err != nil {
			return nil, nil, err
		}
	}
	if err := rp.tr.write(tracePath); err != nil {
		return nil, nil, err
	}
	return rp.tr, rp.handler, nil
}

// serve sends o to the in-process server.
func (rp *replay) serve(o op) (int, string) {
	method, path := rp.p.route(o)
	req := httptest.NewRequest(method, path, bytes.NewReader(rp.p.body(o)))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	rp.srv.ServeHTTP(rec, req)
	return rec.Code, rec.Header().Get("X-Cache")
}

// register registers scenario i in-process and traces the layers a
// registration runs through: parsing, the registration chase, the
// incremental engine and (durable workloads) the WAL append.
func (rp *replay) register(i int) error {
	s := rp.p.Scenarios[i]
	t := rp.tr
	root := t.begin("register", -1, -1)
	defer t.end(root)
	body, err := json.Marshal(api.RegisterRequest{Name: s.Name, Setting: s.Setting, Source: s.Source})
	if err != nil {
		return err
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/scenarios", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t.do("server.register", root, -1, func() { rp.srv.ServeHTTP(rec, req) })
	if rec.Code != http.StatusCreated {
		return fmt.Errorf("in-process registration of %s: %d %s", s.Name, rec.Code, rec.Body)
	}
	var perr error
	t.do("parser.parse_setting", root, -1, func() { _, perr = parser.ParseSetting(s.Setting) })
	var src *instance.Instance
	t.do("parser.parse_instance", root, -1, func() { src, perr = parser.ParseInstance(s.Source) })
	if perr != nil {
		return perr
	}
	ps := rp.or.parsed[i]
	var res *chase.Result
	t.do("chase.standard", root, -1, func() { res, perr = chase.Standard(ps.setting, src, chase.Options{}) })
	if perr != nil {
		return perr
	}
	if s.Batch == "" {
		return nil
	}
	var e *incr.Engine
	t.do("incr.new", root, -1, func() { e, perr = incr.New(ps.setting, src, chase.Options{}) })
	if perr != nil {
		return perr
	}
	rp.engines[i] = e
	if rp.journal != nil {
		st := &store.State{ID: s.Name, ContentID: s.Name, SettingText: s.Setting, InitVersion: src.Version(),
			Steps: res.Steps, Source: src, Fixpoint: res.Target}
		t.do("store.register_append", root, -1, func() { perr = rp.journal.Register(st) })
	}
	return perr
}

// routeKeys traces the ring lookup a cluster member makes per request.
func (rp *replay) routeKeys() {
	cl, err := cluster.New(cluster.Config{Peers: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}, Self: "http://127.0.0.1:1"})
	if err != nil {
		panic(err)
	}
	for _, o := range rp.p.Ops[:min(len(rp.p.Ops), 2*replayPerClient)] {
		name := rp.p.Scenarios[o.Scen].Name
		rp.tr.do("cluster.route_key", -1, o.ID, func() { cl.RouteKey(name) })
	}
}

// op replays one timed op: the request through ServeHTTP, then the layer
// calls it runs through. Every read of every workload misses the result
// cache, so each runs all of them.
func (rp *replay) op(o op) error {
	t := rp.tr
	root := t.begin("op."+o.Class, -1, o.ID)
	defer t.end(root)
	h := t.begin("server.handler."+o.Class, root, o.ID)
	code, _ := rp.serve(o)
	t.end(h)
	rp.handler[o.Class] = append(rp.handler[o.Class], t.spans[h].End-t.spans[h].Start)
	if code != o.Want {
		return fmt.Errorf("in-process op %d (%s): status %d, want %d", o.ID, o.Kind, code, o.Want)
	}
	ps := rp.or.parsed[o.Scen]
	src := ps.states[o.State]
	opt := chase.Options{}
	var err error
	switch {
	case o.Kind == "certain":
		var q query.Evaluable
		t.do("parser.parse_query", root, o.ID, func() { q, err = parseQuery(o.Query) })
		if err != nil {
			return err
		}
		sem := certainSemantics[o.Sem]
		name := "certain.answers." + o.Sem
		if o.Class == classRefusal {
			name = "certain.refusal"
		}
		var ans *query.TupleSet
		var aerr error
		t.do(name, root, o.ID, func() { ans, aerr = certain.Answers(ps.setting, q, src, sem, certain.Options{Workers: 1}) })
		// The solution certain.Answers walks, computed on its own.
		var sol *instance.Instance
		switch {
		case sem == certain.CertainCup || sem == certain.MaybeCap:
			t.do("cwa.minimal", root, o.ID, func() { sol, err = cwa.Minimal(ps.setting, src, opt) })
		case ps.setting.EgdsOnly() || ps.setting.FullAndEgds():
			t.do("cwa.cansol", root, o.ID, func() { sol, err = cwa.CanSol(ps.setting, src, opt) })
		default:
			t.do("cwa.enumerate", root, o.ID, func() {
				var sols []*instance.Instance
				sols, err = cwa.Enumerate(ps.setting, src, cwa.EnumOptions{Workers: 1})
				if err == nil && len(sols) > 0 {
					sol = sols[0]
				}
			})
		}
		if err != nil || aerr != nil {
			return nil // refused: nothing is evaluated or encoded
		}
		if sol != nil {
			t.do("query.answers", root, o.ID, func() { q.AnswerSet(sol) })
		}
		t.do("encode.response", root, o.ID, func() {
			_, err = json.Marshal(api.CertainResponse{Scenario: rp.p.Scenarios[o.Scen].Name, Semantics: o.Sem,
				Query: o.Query, Answers: sortedAnswers(ans)})
		})
	case o.Kind == "chase" || o.Kind == "core" || o.Kind == "cansol":
		var inst *instance.Instance
		if o.Kind == "cansol" {
			t.do("cwa.cansol", root, o.ID, func() { inst, err = cwa.CanSol(ps.setting, src, opt) })
		} else {
			var res *chase.Result
			t.do("chase.standard", root, o.ID, func() { res, err = chase.Standard(ps.setting, src, opt) })
			if err != nil {
				return err
			}
			inst = res.Target
			if o.Kind == "core" {
				t.do("score.core", root, o.ID, func() { inst = score.Core(inst) })
			}
		}
		if err != nil {
			return err
		}
		var text string
		t.do("parser.format_instance", root, o.ID, func() { text = parser.FormatInstance(inst) })
		t.do("encode.response", root, o.ID, func() {
			_, err = json.Marshal(api.InstanceResponse{Scenario: rp.p.Scenarios[o.Scen].Name, Instance: text, Atoms: inst.Len()})
		})
	case o.Kind == "exists":
		t.do("cwa.exists", root, o.ID, func() { _, err = cwa.Exists(ps.setting, src, opt) })
	case o.Kind == "insert" || o.Kind == "delete":
		s := rp.p.Scenarios[o.Scen]
		var batch *instance.Instance
		t.do("parser.parse_instance", root, o.ID, func() { batch, err = parser.ParseInstance(s.Batch) })
		if err != nil {
			return err
		}
		muts := make([]instance.Mutation, 0, batch.Len())
		for _, a := range batch.Atoms() {
			muts = append(muts, instance.Mutation{Insert: o.Kind == "insert", Atom: a})
		}
		var res incr.ApplyResult
		t.do("incr.apply", root, o.ID, func() { res, err = rp.engines[o.Scen].Apply(muts, opt) })
		if err != nil {
			return err
		}
		if rp.journal != nil {
			t.do("store.mutate_append", root, o.ID, func() { err = rp.journal.Mutate(s.Name, res.Version, muts) })
		}
	}
	return err
}
