package dataset

import (
	"fmt"
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
// errors, and counts one miss followed by two hits. A conjunction with a
// term that does not lower has no key: it compiles uncached, counting
// neither, so it errors exactly as the cold compile does, short-circuit
// included; a conjunction the warm-up already stored is a hit each time.
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
		key, keyErr := cache.key(full, nil)
		// Warming with every term as one conjunction caches the query itself.
		cachedBefore := keyErr == nil && cache.lookup(key) != nil

		cold, coldErr := tab.Where(full)
		hits0, _, misses0 := cache.Stats()
		for q := uint64(1); q <= 3; q++ {
			got, gotErr := cache.Where(full)
			hits, partial, misses := cache.Stats()
			if partial != 0 {
				t.Fatalf("seed %d: partial counter %d, want 0", seed, partial)
			}
			switch {
			case keyErr != nil:
				if hits != hits0 || misses != misses0 {
					t.Fatalf("seed %d query %d: hits %d->%d misses %d->%d; a query without a key counts neither",
						seed, q, hits0, hits, misses0, misses)
				}
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

// TestSelectionCacheByteRule holds the byte budget at the row counts the
// system serves: an entry counts (rows+63)/64 words of 8 bytes plus its key,
// a cache keeps exactly the entries its budget fits, a 0-row table counts
// only keys, and a bitmap larger than the whole budget is still kept, alone.
// fits is how many 3-byte-key entries the shipped 32 MiB budget holds.
func TestSelectionCacheByteRule(t *testing.T) {
	for _, tc := range []struct {
		rows, bitmap, budget, want, fits int
	}{
		{rows: 0, bitmap: 0, budget: 3 * 3, want: 3, fits: 11184810},
		{rows: 10, bitmap: 8, budget: 3 * (8 + 3), want: 3, fits: 3050402},
		{rows: 10_000, bitmap: 1256, budget: 3 * (1256 + 3), want: 3, fits: 26651},
		{rows: 300_000, bitmap: 37504, budget: 3 * (37504 + 3), want: 3, fits: 894},
		{rows: 3_000_000, bitmap: 375000, budget: 3 * (375000 + 3), want: 3, fits: 89},
		{rows: 10_000, bitmap: 1256, budget: 100, want: 1, fits: 26651},
	} {
		tab, err := NewTable(NewBoolColumn("b", make([]bool, tc.rows)))
		if err != nil {
			t.Fatal(err)
		}
		cache := newSelectionCache(tab, 0, tc.budget)
		entry := tc.bitmap + 3
		if got := cache.entryBytes("k00"); got != entry {
			t.Fatalf("%d rows: an entry counts %d bytes, want %d", tc.rows, got, entry)
		}
		if got := selectionCacheBytes / entry; got != tc.fits {
			t.Errorf("%d rows: the shipped budget fits %d entries, want %d", tc.rows, got, tc.fits)
		}
		for i := 0; i < 10; i++ {
			sel, err := tab.Where(nil)
			if err != nil {
				t.Fatal(err)
			}
			cache.store(fmt.Sprintf("k%02d", i), sel)
		}
		if cache.Len() != tc.want || cache.Bytes() != tc.want*entry {
			t.Errorf("%d rows, budget %d: %d entries of %d bytes, want %d of %d",
				tc.rows, tc.budget, cache.Len(), cache.Bytes(), tc.want, tc.want*entry)
		}
	}
}

// TestSelectionCacheLostRaceReleases stores one key twice, as two sessions
// compiling the same new filter at once do: the second, losing copy is
// still exclusively owned, so it goes back to the arena, and both callers
// get a reference to the first copy, which the cache keeps holding after
// they release theirs.
func TestSelectionCacheLostRaceReleases(t *testing.T) {
	tab := kernelTable(rand.New(rand.NewSource(61)), 1000)
	arena := NewWordArena(tab.NumRows())
	tab.SetArena(arena)
	cache := NewSelectionCache(tab)
	p := Range{Column: "score", Low: -2, High: 2}
	key, err := cache.key(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	first, err := tab.Where(p)
	if err != nil {
		t.Fatal(err)
	}
	second, err := tab.Where(p)
	if err != nil {
		t.Fatal(err)
	}
	before := arena.Stats().ReturnedSelections
	if got := cache.store(string(key), first); got != first {
		t.Fatal("the first store did not keep its selection")
	}
	if got := cache.store(string(key), second); got != first {
		t.Fatal("the losing store did not return the cached selection")
	}
	if returned := arena.Stats().ReturnedSelections - before; returned != 1 {
		t.Errorf("the arena got back %d selections, want the losing copy", returned)
	}
	first.Release()
	first.Release()
	if returned := arena.Stats().ReturnedSelections - before; returned != 1 {
		t.Errorf("the arena got back %d selections after both callers released, want 1: the cache holds the first copy", returned)
	}
	if got := cache.lookup(key); got != first {
		t.Error("the cache no longer serves the first copy")
	}
}

// TestSelectionCacheOverReleasePanics: one Release too many on a selection
// the cache still holds panics, and the bitmap stays in the cache, intact,
// instead of going back to the arena.
func TestSelectionCacheOverReleasePanics(t *testing.T) {
	tab := kernelTable(rand.New(rand.NewSource(67)), 1000)
	arena := NewWordArena(tab.NumRows())
	tab.SetArena(arena)
	cache := NewSelectionCache(tab)
	p := Range{Column: "score", Low: -2, High: 2}
	want, err := tab.Where(p)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := cache.Where(p)
	if err != nil {
		t.Fatal(err)
	}
	sel.Release()
	before := arena.Stats().ReturnedSelections
	func() {
		defer func() {
			if recover() == nil {
				t.Error("releasing a cached selection twice did not panic")
			}
		}()
		sel.Release()
	}()
	if got := arena.Stats().ReturnedSelections - before; got != 0 {
		t.Errorf("the over-release returned %d selections to the arena, want 0", got)
	}
	again, err := cache.Where(p)
	if err != nil {
		t.Fatal(err)
	}
	if again != sel {
		t.Fatal("the cache no longer serves the over-released selection")
	}
	requireSameBitmap(t, "over-released cached selection", again, want)
}
