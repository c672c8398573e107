package colstore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smallSnapshotBytes builds a compact but fully-featured snapshot (every
// column kind, a multi-entry dictionary) and returns its bytes.
func smallSnapshotBytes(t *testing.T) []byte {
	t.Helper()
	st := randomStore(t, rand.New(rand.NewSource(3)), 9)
	path := filepath.Join(t.TempDir(), "small.aware")
	if err := st.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// decodeNoPanic runs Decode and converts a panic into a test failure, so the
// corruption sweeps assert the "never panic on hostile input" contract.
func decodeNoPanic(t *testing.T, data []byte) (st *Store, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Decode panicked on %d-byte input: %v", len(data), r)
		}
	}()
	return Decode(data)
}

// TestCorruptEveryByte flips every single byte of a valid snapshot, one at a
// time, and requires each mutant to fail decoding with a typed snapshot error
// — payload flips are caught by the CRC, preamble flips by structural
// validation. No mutant may panic, and none may decode successfully (a
// one-byte flip always changes logical content or metadata).
func TestCorruptEveryByte(t *testing.T) {
	orig := smallSnapshotBytes(t)
	if _, err := decodeNoPanic(t, orig); err != nil {
		t.Fatalf("pristine snapshot failed to decode: %v", err)
	}
	mutant := make([]byte, len(orig))
	for i := range orig {
		copy(mutant, orig)
		mutant[i] ^= 0xFF
		_, err := decodeNoPanic(t, mutant)
		if err == nil {
			t.Fatalf("flipping byte %d went undetected", i)
		}
		if !errors.Is(err, ErrBadSnapshot) && !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("flipping byte %d: error is not typed: %v", i, err)
		}
	}
}

// TestCorruptTruncation decodes every prefix of a valid snapshot. All proper
// prefixes must fail with a typed error and never panic.
func TestCorruptTruncation(t *testing.T) {
	orig := smallSnapshotBytes(t)
	for n := 0; n < len(orig); n++ {
		_, err := decodeNoPanic(t, orig[:n])
		if err == nil {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("truncation to %d bytes: error is not typed: %v", n, err)
		}
	}
}

// TestCorruptTrailingGarbage appends bytes past the last column.
func TestCorruptTrailingGarbage(t *testing.T) {
	orig := smallSnapshotBytes(t)
	ext := append(append([]byte(nil), orig...), 0xAB, 0xCD)
	if _, err := decodeNoPanic(t, ext); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("trailing garbage: got %v, want ErrBadSnapshot", err)
	}
}

// TestSnapshotVersionGate rewrites the version field (and recomputes nothing
// else — the version lives in the preamble, outside the CRC'd payload) and
// expects ErrSnapshotVersion specifically, so future format revisions fail
// loudly and distinguishably.
func TestSnapshotVersionGate(t *testing.T) {
	orig := smallSnapshotBytes(t)
	for _, v := range []uint32{0, 1, 3, 7, 1 << 30} {
		mutant := append([]byte(nil), orig...)
		binary.LittleEndian.PutUint32(mutant[8:], v)
		_, err := decodeNoPanic(t, mutant)
		if !errors.Is(err, ErrSnapshotVersion) || !strings.Contains(err.Error(), "awarestore build or awarestore gen") {
			t.Fatalf("version %d: got %v, want ErrSnapshotVersion naming the rebuild", v, err)
		}
	}
}

// TestCorruptBoolByte targets the bool-byte validation: a bool byte that is
// neither 0 nor 1 must be rejected even when the CRC is fixed up to match, as
// aliasing it into a []bool would be undefined behaviour.
func TestCorruptBoolByte(t *testing.T) {
	floats := []float64{1, 2, 3}
	bools := []bool{true, false, true}
	st, err := NewStore(NewFloatColumn("f", floats), NewBoolColumn("b", bools))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "b.aware")
	if err := st.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	// The bool segment is the last value segment; its first byte is a 1.
	// Find it from the end: 3 bool bytes + 5 pad bytes trail the file.
	boolOff := len(data) - 8
	if data[boolOff] != 1 || data[boolOff+1] != 0 || data[boolOff+2] != 1 {
		t.Fatalf("bool segment not where expected: % x", data[boolOff:])
	}
	data[boolOff+1] = 0x42
	patchCRC(data)
	_, err = decodeNoPanic(t, data)
	if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("bool byte 0x42: got %v, want ErrBadSnapshot", err)
	}
}

// TestCorruptDictCode fixes up the CRC after writing an out-of-range
// dictionary code, exercising the NewStore re-validation path.
func TestCorruptDictCode(t *testing.T) {
	st, err := NewStore(NewCategoricalColumn("c", []string{"a", "b", "a", "b"}))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "d.aware")
	if err := st.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	// Codes are the final segment: 4 rows x 1 byte, padded to 8.
	codeOff := len(data) - 8
	data[codeOff] = 2
	patchCRC(data)
	_, err = decodeNoPanic(t, data)
	if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("out-of-range code: got %v, want ErrBadSnapshot", err)
	}
}

// TestCorruptEncoding hand-crafts the v2 encodings no producer writes — each
// patched into a valid snapshot with its CRC fixed up, so only the structural
// checks stand between it and the kernels — and requires ErrBadSnapshot: a
// numeric code past its value dictionary, an unsorted value dictionary (the
// two zeros swapped, or two entries exchanged), a duplicated entry, a NaN
// entry, and widths that are not the canonical one for the column.
func TestCorruptEncoding(t *testing.T) {
	st, err := NewStore(
		NewFloatColumn("f", []float64{1.5, -2, 0, math.Copysign(0, -1)}), // values -2, -0, +0, 1.5
		NewCategoricalColumn("c", []string{"a", "b", "a", "b"}),
		NewFloatColumn("w", []float64{1, math.NaN(), 2, 3}), // wide
	)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "e.aware")
	if err := st.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	orig, _ := os.ReadFile(path)
	if _, err := decodeNoPanic(t, orig); err != nil {
		t.Fatalf("pristine snapshot: %v", err)
	}
	// Each column is a 32-byte header, its name padded to 8, its dictionary
	// blob padded to 8, its values padded to 8.
	type segs struct{ header, dict, values int }
	var cols []segs
	for off := preambleSize; off < len(orig); {
		h := parseColHeader(orig[off:])
		s := segs{header: off}
		s.dict = off + colHeaderSize + int(h.nameLen+uint32(pad8(uint64(h.nameLen))))
		s.values = s.dict + int(h.dictBytes+pad8(h.dictBytes))
		off = s.values + int(h.dataBytes+pad8(h.dataBytes))
		cols = append(cols, s)
	}
	f, c, w := cols[0], cols[1], cols[2]
	value := func(data []byte, k int) []byte { return data[f.dict+8*k : f.dict+8*k+8] }
	for name, mutate := range map[string]func(data []byte){
		"code past the values": func(data []byte) { data[f.values+1] = 4 },
		"zeros swapped": func(data []byte) {
			binary.LittleEndian.PutUint64(value(data, 1), 0)
			binary.LittleEndian.PutUint64(value(data, 2), 1<<63)
		},
		"entries exchanged": func(data []byte) {
			a := binary.LittleEndian.Uint64(value(data, 0))
			copy(value(data, 0), value(data, 3))
			binary.LittleEndian.PutUint64(value(data, 3), a)
		},
		"duplicate entry":           func(data []byte) { copy(value(data, 3), value(data, 2)) },
		"NaN entry":                 func(data []byte) { binary.LittleEndian.PutUint64(value(data, 3), math.Float64bits(math.NaN())) },
		"categorical at width 2":    func(data []byte) { data[c.header+1] = 2 },
		"categorical uncoded":       func(data []byte) { data[c.header+1] = 0 },
		"numeric coded at width 2":  func(data []byte) { data[f.header+1] = 2 },
		"numeric uncoded with dict": func(data []byte) { data[f.header+1] = 0 },
		"wide numeric at width 1":   func(data []byte) { data[w.header+1] = 1 },
		"reserved header byte":      func(data []byte) { data[w.header+2] = 1 },
	} {
		data := append([]byte(nil), orig...)
		mutate(data)
		patchCRC(data)
		if _, err := decodeNoPanic(t, data); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: got %v, want ErrBadSnapshot", name, err)
		}
	}
}

// patchCRC recomputes the payload CRC so validation beyond the checksum is
// reachable in corruption tests.
func patchCRC(data []byte) {
	crc := crc32.Checksum(data[preambleSize:], castagnoli)
	binary.LittleEndian.PutUint32(data[28:], crc)
}

// TestOpenMissingAndEmpty covers environment-level failures of Open.
func TestOpenMissingAndEmpty(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(filepath.Join(dir, "nope.aware")); err == nil {
		t.Error("Open of missing file succeeded")
	}
	empty := filepath.Join(dir, "empty.aware")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(empty); err == nil {
		t.Error("Open of empty file succeeded")
	}
}

// TestOpenCorruptFileTyped checks that Open (the mmap path) surfaces content
// corruption as a typed error, which is what lets awared -data skip bad
// snapshots instead of refusing to start.
func TestOpenCorruptFileTyped(t *testing.T) {
	data := smallSnapshotBytes(t)
	data[len(data)-1] ^= 0x01
	path := filepath.Join(t.TempDir(), "bad.aware")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path)
	if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("Open(corrupt): got %v, want ErrBadSnapshot", err)
	}
	_, err = OpenFile(path, OpenOptions{NoMmap: true})
	if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("OpenFile(corrupt, NoMmap): got %v, want ErrBadSnapshot", err)
	}
}
