package chase

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dependency"
	"repro/internal/genwl"
	"repro/internal/hom"
	"repro/internal/instance"
)

// diffCase is one (setting, source) input of the policy differential test.
type diffCase struct {
	name string
	s    *dependency.Setting
	src  *instance.Instance
}

// foBodySetting has general first-order s-t bodies (negation, disjunction)
// next to a target tgd, so every policy runs its Binding path beside the
// slot path. d5's head is already present for x = b when d5 is first
// evaluated (d2 derived Seen(b)); wed adds an egd merge on Single, after
// which the loop rescans the FO bodies.
const foBodySetting = `
source Person/1, Spouse/2, Tag/2, Wed/2.
target Single/2, Pair/2, Seen/1.
st:
  d1: Person(x) & !(exists y (Spouse(x,y))) -> exists z : Single(x,z).
  d2: Spouse(x,y) | Tag(x,y) -> exists w : Pair(x,w) & Seen(y).
  d5: Person(x) | Tag(x,x) -> Seen(x).
  d6: Wed(x,y) -> Single(x,y).
target-deps:
  d3: Pair(x,w) -> Seen(x).
  d4: Single(x,z) & Single(x,u) -> z = u.
`

func diffCorpus(t *testing.T) []diffCase {
	var cs []diffCase
	ex21 := mustSetting(t, example21)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 24; i++ {
		seed := rng.Uint32()
		cs = append(cs, diffCase{fmt.Sprintf("example21/random-%d", seed), ex21, randomSource21(seed)})
	}
	cs = append(cs,
		diffCase{"Example21", genwl.Example21(), genwl.Example21Source()},
		diffCase{"Example53/3", genwl.Example53(), genwl.Example53Source(3)},
		diffCase{"FullTgds", genwl.FullTgds(), genwl.RandomEdges("R", 12, 3)},
		diffCase{"weakly-not-richly", mustSetting(t, `
source S/2.
target E/2.
st:
  s1: S(x,y) -> E(x,y).
target-deps:
  t1: E(x,y) -> exists z : E(x,z).
`), mustInstance(t, `S(a,b). S(b,c).`)},
		diffCase{"fo-body", mustSetting(t, foBodySetting),
			mustInstance(t, `Person(a). Person(b). Person(c). Spouse(a,b). Tag(c,d). Tag(c,e).`)},
		diffCase{"fo-body/egd", mustSetting(t, foBodySetting),
			mustInstance(t, `Person(a). Person(b). Spouse(a,c). Tag(b,d). Wed(b,k).`)},
	)
	for seed := int64(0); seed < 4; seed++ {
		cs = append(cs,
			diffCase{fmt.Sprintf("EgdOnly/consistent-%d", seed), genwl.EgdOnly(), genwl.EgdOnlySource(6, true, seed)},
			diffCase{fmt.Sprintf("EgdOnly/inconsistent-%d", seed), genwl.EgdOnly(), genwl.EgdOnlySource(6, false, seed)},
		)
	}
	for seed := int64(0); seed < 10; seed++ {
		cs = append(cs, diffCase{fmt.Sprintf("RandomRichlyAcyclic-%d", seed),
			genwl.RandomRichlyAcyclic(seed, true), genwl.RandomLayeredSource(8, seed)})
	}
	return cs
}

// outcome classifies a chase error: ok, egd failure, or budget.
func outcome(t *testing.T, err error) string {
	t.Helper()
	switch {
	case err == nil:
		return "ok"
	case IsEgdFailure(err):
		return "egd-failure"
	case errors.Is(err, ErrBudgetExceeded):
		return "budget"
	}
	t.Fatalf("unexpected chase error: %v", err)
	return ""
}

func egdSteps(trace []Step) int {
	n := 0
	for _, st := range trace {
		if st.Kind == "egd" {
			n++
		}
	}
	return n
}

// compareRuns asserts the differential contract between the policy loop
// and an oracle: same outcome class, isomorphic targets on success, and
// equal step counts on runs without egd applications.
func compareRuns(t *testing.T, got, want *Result, gotErr, wantErr error, egdFree bool) {
	t.Helper()
	g, w := outcome(t, gotErr), outcome(t, wantErr)
	if g != w {
		t.Fatalf("outcome %s, oracle %s (%v / %v)", g, w, gotErr, wantErr)
	}
	if g != "ok" {
		return
	}
	if !hom.Isomorphic(got.Target, want.Target) {
		t.Fatalf("targets not isomorphic:\n%v\noracle:\n%v", got.Target, want.Target)
	}
	if egdFree && got.Steps != want.Steps {
		t.Fatalf("steps %d, oracle %d", got.Steps, want.Steps)
	}
}

// TestPolicyLoopMatchesOracles runs each firing policy of the one chase
// loop against the standalone engine it replaced (oracle_test.go).
func TestPolicyLoopMatchesOracles(t *testing.T) {
	opt := Options{MaxSteps: 2000, Trace: true}
	for _, tc := range diffCorpus(t) {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("alpha", func(t *testing.T) {
				got, gotErr := AlphaChase(tc.s, tc.src, NewFreshAlpha(instance.NewNullSource(0)), opt)
				want, wantErr := oracleAlphaChase(tc.s, tc.src, NewFreshAlpha(instance.NewNullSource(0)), opt)
				var g, w *Result
				egdFree := false
				if got != nil && want != nil {
					g, w = &got.Result, &want.Result
					egdFree = egdSteps(want.Trace) == 0
				}
				compareRuns(t, g, w, gotErr, wantErr, egdFree)
			})
			t.Run("canonical", func(t *testing.T) {
				got, _, gotErr := Canonical(tc.s, tc.src, opt)
				want, _, wantErr := oracleCanonical(tc.s, tc.src, opt)
				var g, w *Result
				egdFree := false
				if got != nil && want != nil {
					g, w = &got.Result, &want.Result
					// The trace covers the final run only: it accounts for
					// every step exactly when no restart happened, i.e. no
					// egd ever merged.
					egdFree = want.Steps == len(want.Trace)
				}
				compareRuns(t, g, w, gotErr, wantErr, egdFree)
			})
			t.Run("oblivious", func(t *testing.T) {
				got, gotErr := Oblivious(tc.s, tc.src, opt)
				want, wantErr := oracleOblivious(tc.s, tc.src, opt)
				egdFree := want != nil && egdSteps(want.Trace) == 0
				compareRuns(t, got, want, gotErr, wantErr, egdFree)
			})
		})
	}
}

// idleFiringObserver counts tgd firings that inserted nothing.
type idleFiringObserver struct{ idle []string }

func (o *idleFiringObserver) TGDFired(d *dependency.TGD, _, inserted []instance.Atom) {
	if len(inserted) == 0 {
		o.idle = append(o.idle, d.Name)
	}
}

func (o *idleFiringObserver) EgdApplied(string, instance.Value, instance.Value) {}

// The standard policy has no oracle — Standard has always been this loop —
// so its firing rule is checked directly: a trigger fires only while no
// extension satisfies its head, so every firing inserts at least one atom,
// on the slot path and the Binding path alike.
func TestStandardPolicyFiresOnlyViolations(t *testing.T) {
	for _, tc := range diffCorpus(t) {
		obs := &idleFiringObserver{}
		r, err := NewResumable(tc.s, tc.src, Options{MaxSteps: 2000}, obs)
		if err != nil && !IsEgdFailure(err) && !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(obs.idle) > 0 {
			t.Fatalf("%s: satisfied triggers fired: %v", tc.name, obs.idle)
		}
		if err == nil && !IsSolution(tc.s, tc.src, r.Target()) {
			t.Fatalf("%s: standard chase result is not a solution", tc.name)
		}
	}
}
