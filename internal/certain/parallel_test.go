package certain

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/chase"
	"repro/internal/genwl"
	"repro/internal/instance"
	"repro/internal/metrics"
)

// TestForEachRepEarlyStopNoExtraWork pins the fix for the missing stop guard
// in the base-constant loop of the valuation walk: once the callback returns
// false, no further representative may be materialised, recursed into, or
// delivered. Before the fix the base-constant loop kept fanning out after a
// stop, wasting exponential work.
func TestForEachRepEarlyStopNoExtraWork(t *testing.T) {
	s := mustSetting(t, example21)
	// Four nulls over base {a} plus canonical fresh constants: dozens of
	// candidate valuations if the walk keeps going after the stop.
	tgt := mustInstance(t, `E(a,_0). E(a,_1). E(a,_2). E(a,_3).`)
	q := mustUCQ(t, "q() :- E(x,y).")
	for _, workers := range []int{1, 4} {
		before := metrics.Read()
		calls := 0
		err := ForEachRep(s, tgt, q, Options{Workers: workers}, func(*instance.Instance) bool {
			calls++
			return false
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls != 1 {
			t.Fatalf("workers=%d: callback ran %d times after an immediate stop, want 1",
				workers, calls)
		}
		if workers == 1 {
			// Sequential walk: the stop must also cut candidate
			// materialisation immediately, not just callback delivery.
			if d := metrics.Read().Diff(before); d["rep_candidates"] != 1 {
				t.Fatalf("walk materialised %d candidates after an immediate stop, want 1",
					d["rep_candidates"])
			}
		}
	}
}

// TestBoxDiamondWorkerInvariance: the answer sets must be identical for the
// sequential and the parallel path.
func TestBoxDiamondWorkerInvariance(t *testing.T) {
	s := mustSetting(t, example21)
	tgt := mustInstance(t, `E(a,_0). E(_1,b). F(a,_2). G(_2,_3).`)
	for _, qs := range []string{
		"q(x) :- E(x,y).",
		"q(x,y) :- E(x,y), F(x,z).",
		"q() :- G(x,y).",
	} {
		q := mustUCQ(t, qs)
		boxSeq, err := Box(s, q, tgt, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		diaSeq, err := Diamond(s, q, tgt, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4} {
			boxPar, err := Box(s, q, tgt, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !boxSeq.Equal(boxPar) {
				t.Errorf("%s: Box differs: 1 worker %v, %d workers %v", qs, boxSeq, workers, boxPar)
			}
			diaPar, err := Diamond(s, q, tgt, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !diaSeq.Equal(diaPar) {
				t.Errorf("%s: Diamond differs: 1 worker %v, %d workers %v", qs, diaSeq, workers, diaPar)
			}
		}
	}
}

// TestAnswersWorkerInvariance: all four semantics agree between the
// sequential and the parallel evaluation paths, end to end from the source.
func TestAnswersWorkerInvariance(t *testing.T) {
	s := mustSetting(t, example21)
	src := mustInstance(t, smallSource)
	q := mustUCQ(t, "q(x) :- E(x,y).")
	for _, sem := range []Semantics{CertainCap, CertainCup, MaybeCap, MaybeCup} {
		seq, err := Answers(s, q, src, sem, Options{Workers: 1})
		if err != nil {
			t.Fatalf("%v: %v", sem, err)
		}
		par, err := Answers(s, q, src, sem, Options{Workers: 4})
		if err != nil {
			t.Fatalf("%v: %v", sem, err)
		}
		if !seq.Equal(par) {
			t.Errorf("%v differs: 1 worker %v, 4 workers %v", sem, seq, par)
		}
	}
}

// TestForEachRepCanceled: a done context aborts the enumeration with
// chase.ErrCanceled on both the sequential and the parallel path.
func TestForEachRepCanceled(t *testing.T) {
	s := mustSetting(t, example21)
	tgt := mustInstance(t, `E(a,_0). E(a,_1).`)
	q := mustUCQ(t, "q() :- E(x,y).")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		opt := Options{Workers: workers, Chase: chase.Options{Ctx: ctx}}
		err := ForEachRep(s, tgt, q, opt, func(*instance.Instance) bool { return true })
		if !errors.Is(err, chase.ErrCanceled) {
			t.Fatalf("workers=%d: want ErrCanceled, got %v", workers, err)
		}
		if _, err := Box(s, q, tgt, opt); !errors.Is(err, chase.ErrCanceled) {
			t.Fatalf("workers=%d: Box must propagate cancellation, got %v", workers, err)
		}
	}
}

// TestByDefinitionHonoursDeadline: certain⊓ outside Proposition 5.4's
// classes falls back to enumerating every CWA-solution (ByDefinition). With
// no enumeration-specific options the walk runs under the caller's chase
// options, so their deadline cancels it promptly instead of the walk
// running on until its state bound.
func TestByDefinitionHonoursDeadline(t *testing.T) {
	s := genwl.Example53()
	src := genwl.Example53Source(4)
	q := mustUCQ(t, "q(x) :- F(x,y,z).")
	const deadline = 200 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err := Answers(s, q, src, CertainCap, Options{Chase: chase.Options{Ctx: ctx}})
	elapsed := time.Since(start)
	if !errors.Is(err, chase.ErrCanceled) {
		t.Fatalf("want an error wrapping ErrCanceled, got %v", err)
	}
	if elapsed > 10*deadline {
		t.Fatalf("canceled after %v, want within a small multiple of %v", elapsed, deadline)
	}
}
