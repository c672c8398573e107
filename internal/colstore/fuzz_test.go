package colstore

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the snapshot decoder. The contract
// under fuzzing: Decode never panics, and either fails with a typed snapshot
// error or returns a store whose every invariant holds (in particular,
// re-encoding it must produce a file that decodes to the same content).
// The seed corpus includes valid snapshots of each shape plus known-tricky
// mutants; `go test` runs the corpus even without -fuzz.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("AWARECS\n"))
	f.Add(make([]byte, preambleSize))

	// Valid snapshots: empty, single-kind, all-kinds.
	dir := f.TempDir()
	add := func(st *Store, name string) {
		path := filepath.Join(dir, name)
		if err := st.WriteSnapshot(path); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// A few deterministic mutants of each seed.
		for _, i := range []int{8, 12, 16, 24, 28, 32, len(data) - 1} {
			if i >= 0 && i < len(data) {
				m := append([]byte(nil), data...)
				m[i] ^= 0x01
				f.Add(m)
			}
		}
		f.Add(data[:len(data)/2])
	}
	empty, _ := NewStore()
	add(empty, "empty.aware")
	onecol, err := NewStore(NewCategoricalColumn("c", []string{"x", "y", "x"}))
	if err != nil {
		f.Fatal(err)
	}
	add(onecol, "onecol.aware")
	rng := rand.New(rand.NewSource(11))
	add(randomStoreF(f, rng, 17), "allkinds.aware")
	add(randomStoreF(f, rng, 300), "wide.aware") // past 256 distinct values: uncoded numerics, 2-byte codes

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) && !errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// A decodable input must re-encode and decode to identical content.
		path := filepath.Join(t.TempDir(), "re.aware")
		if err := st.WriteSnapshot(path); err != nil {
			t.Fatalf("re-encoding decoded store: %v", err)
		}
		back, err := Open(path)
		if err != nil {
			t.Fatalf("re-decoding: %v", err)
		}
		defer back.Close()
		sameStore(t, st, back)
	})
}

// randomStoreF is randomStore for a *testing.F receiver.
func randomStoreF(f *testing.F, rng *rand.Rand, rows int) *Store {
	floats := make([]float64, rows)
	ints := make([]int64, rows)
	cats := make([]string, rows)
	bools := make([]bool, rows)
	for i := 0; i < rows; i++ {
		floats[i] = rng.NormFloat64()
		ints[i] = rng.Int63n(1000)
		cats[i] = fmt.Sprint(rng.Intn(rows))
		bools[i] = rng.Intn(2) == 1
	}
	st, err := NewStore(
		NewFloatColumn("f", floats),
		NewIntColumn("i", ints),
		NewCategoricalColumn("c", cats),
		NewBoolColumn("b", bools),
	)
	if err != nil {
		f.Fatal(err)
	}
	return st
}

// FuzzRowBuilder holds every way into a snapshot to one file: a random table
// over the four kinds, appended to a RowBuilder through Append, through
// AppendStrings of its formatted rows and through the typed setters, must
// come out as the bytes Store.WriteSnapshot writes of the same table. kinds
// and modes pick each column's kind and values (genValue): both zeros, NaN,
// int64 2^53 and 2^53+1, empty strings, and numeric columns that turn wide
// on their 257th distinct value at row wide past the first batch edge. Up to
// three batches and a few rows go in, so every batch edge is crossed.
func FuzzRowBuilder(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3}, []byte{1, 1, 1, 0}, uint16(batchRows+300), uint16(5))
	f.Add(int64(2), []byte{0, 0, 1, 2, 3, 1}, []byte{0, 3, 0, 2, 0, 1}, uint16(3*batchRows+7), uint16(0))
	f.Add(int64(3), []byte{2}, []byte{0}, uint16(1), uint16(0))
	f.Add(int64(3), []byte{2, 2}, []byte{0, 2}, uint16(batchRows+9), uint16(0))
	f.Add(int64(4), []byte{3, 1}, []byte{0, 2}, uint16(0), uint16(0))
	f.Add(int64(5), []byte{0}, []byte{1}, uint16(batchRows), uint16(batchRows-1))
	f.Fuzz(func(t *testing.T, seed int64, kinds, modes []byte, rows, wide uint16) {
		ks := make([]Kind, 1+len(kinds)%6)
		ms := make([]int, len(ks))
		for i := range ks {
			if i < len(kinds) {
				ks[i] = Kind(kinds[i] % numKinds)
			}
			if i < len(modes) {
				ms[i] = int(modes[i])
			}
		}
		n := int(rows) % (3*batchRows + 8)
		tt := genTable(rand.New(rand.NewSource(seed)), ks, ms, n, batchRows+int(wide)%batchRows)
		sameSnapshots(t, snapshotsOf(t, tt))
	})
}
