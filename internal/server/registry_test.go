package server

// Regression tests for the registry's result-cache hygiene: every path a
// scenario leaves by must clean up after it. Deleting a scenario used to
// bypass the eviction hook (lru.remove/removeIf skipped onEvict), which
// could leave mutated-namespace result entries behind; a later scenario
// re-registered under the same name restarts the version counter, so a
// stale entry could answer for different content.

import (
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/instance"
)

const tinySetting = `
source S/1.
target T/1.
st:
  d1: S(x) -> T(x).
`

func TestDropPurgesResultCache(t *testing.T) {
	r := newRegistry(4, 16, nil)
	sc, reused, err := r.register("s", tinySetting, `S(a).`, chase.Options{})
	if err != nil || reused {
		t.Fatalf("register: reused=%v err=%v", reused, err)
	}

	contentKey := resultKey(sc, "core")
	mutKey := mutatedNamespace(sc.id) + sc.contentID + "\x00v9\x00core"
	otherKey := "othercontent\x00v1\x00core"
	r.results.put(contentKey, []byte("cached"))
	r.results.put(mutKey, []byte("stale"))
	r.results.put(otherKey, []byte("keep"))

	if ok, err := r.drop("s", false); err != nil || !ok {
		t.Fatalf("drop: ok=%v err=%v", ok, err)
	}
	if _, err := r.lookup("s"); err == nil {
		t.Fatal("scenario still resident after drop")
	}
	if _, ok := r.results.get(contentKey); ok {
		t.Fatal("content-keyed result survived an explicit DELETE")
	}
	if _, ok := r.results.get(mutKey); ok {
		t.Fatal("mutated-namespace result survived an explicit DELETE")
	}
	if _, ok := r.results.get(otherKey); !ok {
		t.Fatal("unrelated result was purged by drop")
	}
}

func TestCapacityEvictionPurgesMutatedNamespace(t *testing.T) {
	r := newRegistry(1, 16, nil) // one resident scenario: the next register evicts
	sc, _, err := r.register("a", tinySetting, `S(a).`, chase.Options{})
	if err != nil {
		t.Fatalf("register a: %v", err)
	}
	contentKey := resultKey(sc, "core")
	mutKey := mutatedNamespace("a") + sc.contentID + "\x00v9\x00core"
	r.results.put(contentKey, []byte("cached"))
	r.results.put(mutKey, []byte("stale"))

	// Same content under a different name: a fresh scenario that evicts "a".
	if _, _, err := r.register("b", tinySetting, `S(a).`, chase.Options{}); err != nil {
		t.Fatalf("register b: %v", err)
	}
	if _, err := r.lookup("a"); err == nil {
		t.Fatal("a still resident after capacity eviction")
	}
	if _, ok := r.results.get(mutKey); ok {
		t.Fatal("mutated-namespace result survived the eviction")
	}
	// Content-keyed results are pure functions of (content, version) and
	// deliberately outlive the scenario, so re-registered content re-hits.
	if _, ok := r.results.get(contentKey); !ok {
		t.Fatal("content-keyed result should survive a capacity eviction")
	}
}

// Writes leave the result cache alone (keys carry the version, so old
// entries are unreachable and the LRU reclaims them); the scenario's exit
// is what purges its mutated namespace, every version of it at once.
func TestWritesKeepResultsUntilDrop(t *testing.T) {
	r := newRegistry(4, 64, nil)
	sc, _, err := r.register("s", tinySetting, `S(a).`, chase.Options{})
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	otherKey := "othercontent\x00v1\x00core"
	otherMutKey := mutatedNamespace("t") + "othercontent\x00v3\x00core"
	r.results.put(otherKey, []byte("keep"))
	r.results.put(otherMutKey, []byte("keep"))

	var mutKeys []string
	for _, c := range []string{"b", "c", "d", "e"} {
		muts := []instance.Mutation{{Insert: true, Atom: instance.NewAtom("S", instance.Const(c))}}
		if _, err := r.mutate(sc, muts, 0, chase.Options{}); err != nil {
			t.Fatalf("mutate %s: %v", c, err)
		}
		k := resultKey(sc, "core")
		r.results.put(k, []byte("v"))
		mutKeys = append(mutKeys, k)
	}
	prefix := mutatedNamespace("s")
	for _, k := range mutKeys {
		if !strings.HasPrefix(k, prefix) {
			t.Fatalf("mutated scenario key %q outside its namespace", k)
		}
		if _, ok := r.results.get(k); !ok {
			t.Fatalf("a later write purged %q", k)
		}
	}

	if ok, err := r.drop("s", false); err != nil || !ok {
		t.Fatalf("drop: ok=%v err=%v", ok, err)
	}
	for _, k := range r.results.keysMRU() {
		if strings.HasPrefix(k, prefix) {
			t.Fatalf("mutated-namespace entry %q survived the DELETE", k)
		}
	}
	for _, k := range []string{otherKey, otherMutKey} {
		if _, ok := r.results.get(k); !ok {
			t.Fatalf("unrelated entry %q purged by the DELETE", k)
		}
	}
}
