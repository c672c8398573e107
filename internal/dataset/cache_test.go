package dataset

import (
	"math/rand"
	"testing"
)

// This file holds the SelectionCache to the cold compile: whatever is
// cached, Where returns Table.Where's bitmap word for word, errors exactly
// when Table.Where errors, and counts one miss and then hits.

// requireSameBitmap compares two selections word for word.
func requireSameBitmap(t *testing.T, label string, got, want *Selection) {
	t.Helper()
	if got.Len() != want.Len() || got.Count() != want.Count() {
		t.Fatalf("%s: len %d/%d count %d/%d", label, got.Len(), want.Len(), got.Count(), want.Count())
	}
	for i, w := range want.words {
		if got.words[i] != w {
			t.Fatalf("%s: bitmap word %d differs: %064b vs %064b", label, i, got.words[i], w)
		}
	}
}

// conjunctionLeaves draws 2..6 leaf predicates for a conjunction.
func conjunctionLeaves(rng *rand.Rand) []Predicate {
	n := 2 + rng.Intn(5)
	terms := make([]Predicate, n)
	for i := range terms {
		terms[i] = randomPredicate(rng, 0)
	}
	return terms
}

// TestSelectionCacheEqualsCold is the cache-versus-cold property test: with
// any subset of a conjunction's terms already cached (each alone, or their
// conjunction in any order), querying the conjunction three times returns
// the cold compile's bitmap each time, errors exactly when the cold compile
// errors, and counts one miss followed by two hits. An erroring conjunction
// is never stored, so each of its queries is a miss; a conjunction the
// warm-up already stored is a hit each time.
func TestSelectionCacheEqualsCold(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := randomTable(rng)
		terms := conjunctionLeaves(rng)
		full := And{Terms: terms}
		cache := NewSelectionCache(tab)

		var warm []Predicate
		for _, i := range rng.Perm(len(terms))[:rng.Intn(len(terms)+1)] {
			warm = append(warm, terms[i])
		}
		if rng.Intn(2) == 0 {
			for _, w := range warm {
				cache.Where(w) // an erroring term is fine: it is not cached
			}
		} else if len(warm) > 0 {
			cache.Where(And{Terms: warm})
		}
		key, err := CanonicalPredicateKey(full)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Warming with every term as one conjunction caches the query itself.
		cachedBefore := cache.lookup(key) != nil

		cold, coldErr := tab.Where(full)
		hits0, _, misses0 := cache.Stats()
		for q := uint64(1); q <= 3; q++ {
			got, gotErr := cache.Where(full)
			hits, partial, misses := cache.Stats()
			if partial != 0 {
				t.Fatalf("seed %d: partial counter %d, want 0", seed, partial)
			}
			switch {
			case cachedBefore:
				if hits != hits0+q || misses != misses0 {
					t.Fatalf("seed %d query %d: hits %d->%d misses %d->%d; a cached query is a hit each time",
						seed, q, hits0, hits, misses0, misses)
				}
			case coldErr != nil:
				if hits != hits0 || misses != misses0+q {
					t.Fatalf("seed %d query %d: hits %d->%d misses %d->%d; an erroring query is a miss each time",
						seed, q, hits0, hits, misses0, misses)
				}
			default:
				if misses != misses0+1 || hits != hits0+q-1 {
					t.Fatalf("seed %d query %d: hits %d->%d misses %d->%d; want one miss, then hits",
						seed, q, hits0, hits, misses0, misses)
				}
			}
			if coldErr != nil {
				// The key ignores term order, so a warm-up in another order can
				// have stored the conjunction: its And stopped at an empty
				// accumulator before the term this order fails on.
				if cachedBefore && gotErr == nil && got.Count() == 0 {
					continue
				}
				if gotErr == nil {
					t.Fatalf("seed %d: cold errors (%v) but the cache served a selection", seed, coldErr)
				}
				continue
			}
			if gotErr != nil {
				t.Fatalf("seed %d: cold succeeds but the cache errors: %v", seed, gotErr)
			}
			requireSameBitmap(t, "cached vs cold", got, cold)
		}
	}
}

// TestSelectionCacheKeyOrderInsensitive pins the canonical-key fix for
// And-trees: P∧Q and Q∧P share one cache entry (the regression behind
// order-sensitive keys was two entries and zero sharing).
func TestSelectionCacheKeyOrderInsensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tab := randomTable(rng)
	cache := NewSelectionCache(tab)
	p := Equals{Column: "color", Value: "blue"}
	q := GreaterThan{Column: "score", Threshold: 0}
	first, err := cache.Where(And{Terms: []Predicate{p, q}})
	if err != nil {
		t.Fatal(err)
	}
	second, err := cache.Where(And{Terms: []Predicate{q, p}})
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("reordered conjunction compiled a second bitmap; want the cached one")
	}
	if hits, _, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats: %d hits %d misses; want 1 hit (reordered query) and 1 miss (first compile)", hits, misses)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d entries; want 1", cache.Len())
	}
}
