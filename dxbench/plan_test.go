package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/cluster"
)

// planJSON returns the generated inputs of a plan: scenarios and schedule.
func planJSON(t *testing.T, workload string, seed int64) []byte {
	t.Helper()
	p, err := makePlan(workload, seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal([]any{p.Scenarios, p.Warmup, p.Ops})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPlanDeterministic checks that a plan is a pure function of
// (workload, seed, seconds), and that the seed matters.
func TestPlanDeterministic(t *testing.T) {
	for w := range workloads {
		a, b := planJSON(t, w, 7), planJSON(t, w, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generations with seed 7 differ", w)
		}
		if bytes.Equal(a, planJSON(t, w, 8)) {
			t.Errorf("%s: seeds 7 and 8 give the same plan", w)
		}
	}
}

// TestColdQueryNeverRepeatsAResultKey checks that every cold-query read
// names a result key no other op of the run names, so each is a miss.
func TestColdQueryNeverRepeatsAResultKey(t *testing.T) {
	p, err := makePlan("cold-query", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, o := range append(p.Warmup, p.Ops...) {
		if o.Class == classWrite {
			continue
		}
		k := fmt.Sprintf("%s\x00%d\x00%s\x00%s\x00%s", p.Scenarios[o.Scen].Name, o.State, o.Kind, o.Sem, o.Query)
		if prev, dup := seen[k]; dup {
			t.Fatalf("ops %d and %d share result key %q", prev, o.ID, k)
		}
		seen[k] = o.ID
	}
}

// TestScenariosDistinctAndOwned checks that no two scenarios share content
// (the server would dedupe them into one result-key namespace) and that
// every op names a scenario its own client owns, so the two clients never
// have requests for one key in flight together.
func TestScenariosDistinctAndOwned(t *testing.T) {
	for w := range workloads {
		p, err := makePlan(w, 5, 2)
		if err != nil {
			t.Fatal(err)
		}
		content := map[string]string{}
		for _, s := range p.Scenarios {
			k := s.Setting + "\x00" + s.Source
			if prev, dup := content[k]; dup {
				t.Errorf("%s: scenarios %s and %s have the same content", w, prev, s.Name)
			}
			content[k] = s.Name
		}
		for _, o := range append(p.Warmup, p.Ops...) {
			if o.Client != p.Scenarios[o.Scen].Client {
				t.Errorf("%s: op %d of client %d names scenario %s of client %d",
					w, o.ID, o.Client, p.Scenarios[o.Scen].Name, p.Scenarios[o.Scen].Client)
			}
		}
	}
}

// TestExpectationsMatchPlan computes every expectation in-process and
// checks the plan's expected statuses: every read the plan counts as a
// success is answered by the library, every refusal is refused by it.
func TestExpectationsMatchPlan(t *testing.T) {
	for w := range workloads {
		p, err := makePlan(w, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		or, err := newOracle(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := or.checkPlan(); err != nil {
			t.Errorf("%s: %v", w, err)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// TestClientsAligned checks that the two clients' schedules have equal
// length and that their n-th ops agree in class, endpoint, semantics and
// family, which the lock-step runner relies on.
func TestClientsAligned(t *testing.T) {
	for w := range workloads {
		p, err := makePlan(w, 9, 2)
		if err != nil {
			t.Fatal(err)
		}
		var by [2][]op
		for _, ops := range [][]op{p.Warmup, p.Ops} {
			for _, o := range ops {
				by[o.Client] = append(by[o.Client], o)
			}
		}
		if len(by[0]) != len(by[1]) {
			t.Fatalf("%s: clients have %d and %d ops", w, len(by[0]), len(by[1]))
		}
		for n := range by[0] {
			a, b := by[0][n], by[1][n]
			fa, fb := p.Scenarios[a.Scen].Family, p.Scenarios[b.Scen].Family
			if a.Class != b.Class || a.Kind != b.Kind || a.Sem != b.Sem || a.QT != b.QT || fa != fb || a.State != b.State {
				t.Fatalf("%s: step %d: ops %d and %d differ: %+v (%s) vs %+v (%s)", w, n, a.ID, b.ID, a, fa, b, fb)
			}
		}
	}
}

// TestPlaceOwnersFollowClients checks that on a two-member ring every
// scenario ends up owned by the member numbered like its client, whatever
// the member URLs are.
func TestPlaceOwnersFollowClients(t *testing.T) {
	p, err := makePlan("forwarded-query", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ports := range [][2]int{{40001, 40002}, {51234, 33333}} {
		urls := []string{fmt.Sprintf("http://127.0.0.1:%d", ports[0]), fmt.Sprintf("http://127.0.0.1:%d", ports[1])}
		ring, err := cluster.New(cluster.Config{Peers: urls, Self: urls[0]})
		if err != nil {
			t.Fatal(err)
		}
		f := &fleet{ring: ring, procs: []*proc{{url: urls[0]}, {url: urls[1]}}}
		f.place(p)
		for _, s := range p.Scenarios {
			if f.owner(s.Name) != s.Client {
				t.Fatalf("ports %v: %s of client %d is owned by member %d", ports, s.Name, s.Client, f.owner(s.Name))
			}
		}
	}
}
