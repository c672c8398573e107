package colstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"slices"
)

// Decode parses a version-2 snapshot held in memory. On little-endian hosts
// the returned store's value vectors alias data directly (zero copy) — data
// must stay immutable and alive for the store's lifetime; mmap regions and
// ReadFile buffers both qualify. On big-endian hosts (or when data is not
// 8-byte aligned) the vectors are decoded into fresh heap slices.
//
// Decode never panics on hostile input: every structural claim the file makes
// is bounds-checked, the payload is CRC-verified before any aliasing, every
// column must be stored at its canonical width, and dictionaries, codes and
// bool bytes are validated, so a file that decodes
// successfully can be scanned by the kernels without further checks. Failures
// wrap ErrBadSnapshot or ErrSnapshotVersion.
func Decode(data []byte) (*Store, error) {
	pre, err := parsePreamble(data)
	if err != nil {
		return nil, err
	}
	payload := data[preambleSize:]
	if got := crc32.Checksum(payload, castagnoli); got != pre.crc {
		return nil, badf("checksum mismatch: file says %#08x, payload is %#08x", pre.crc, got)
	}
	if pre.rows > uint64(math.MaxInt) {
		return nil, badf("row count %d overflows int", pre.rows)
	}
	// Aliasing fixed-width vectors requires both the on-disk byte order and
	// natural alignment; otherwise decode element-wise into the heap.
	zeroCopy := hostLittleEndian && aligned8(data)

	cols := make([]*Column, 0, pre.ncols)
	off := uint64(preambleSize)
	take := func(n uint64, what string) ([]byte, error) {
		if n > uint64(len(data))-off {
			return nil, badf("truncated: %s needs %d bytes at offset %d, file has %d", what, n, off, len(data))
		}
		seg := data[off : off+n]
		off += n
		return seg, nil
	}
	for i := uint32(0); i < pre.ncols; i++ {
		hb, err := take(colHeaderSize, "column header")
		if err != nil {
			return nil, err
		}
		h := parseColHeader(hb)
		if err := checkColHeader(h, pre.rows); err != nil {
			return nil, fmt.Errorf("column %d: %w", i, err)
		}
		if h.nameLen == 0 || h.nameLen > 1<<16 {
			return nil, badf("column %d: implausible name length %d", i, h.nameLen)
		}
		nameBytes, err := take(uint64(h.nameLen), "column name")
		if err != nil {
			return nil, err
		}
		name := string(nameBytes)
		if _, err := take(pad8(uint64(h.nameLen)), "name padding"); err != nil {
			return nil, err
		}
		c := &Column{Name: name, Kind: h.kind, Width: int(h.width)}
		blob, err := take(h.dictBytes, "dictionary blob")
		if err != nil {
			return nil, err
		}
		if _, err := take(pad8(h.dictBytes), "dictionary padding"); err != nil {
			return nil, err
		}
		switch {
		case h.kind == Categorical:
			if c.Dict, err = parseDict(name, blob, h.dictLen); err != nil {
				return nil, err
			}
		case h.width != 0:
			c.Values = decodeFixed[uint64](blob, int(h.dictLen), false)
		}
		values, err := take(h.dataBytes, "value segment")
		if err != nil {
			return nil, err
		}
		if _, err := take(pad8(h.dataBytes), "value padding"); err != nil {
			return nil, err
		}
		if err := decodeValues(c, values, int(pre.rows), zeroCopy); err != nil {
			return nil, err
		}
		cols = append(cols, c)
	}
	if off != uint64(len(data)) {
		return nil, badf("%d trailing bytes after the last column", uint64(len(data))-off)
	}
	st, err := NewStore(cols...)
	if err != nil {
		// NewStore re-validates what the format cannot express structurally:
		// duplicate names, unsorted dictionaries, out-of-range codes.
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if st.rows != int(pre.rows) && len(cols) > 0 {
		return nil, badf("columns hold %d rows, preamble declares %d", st.rows, pre.rows)
	}
	st.rows = int(pre.rows) // zero-column files keep the declared row count
	st.version = pre.version
	return st, nil
}

// parseDict decodes a dictionary blob: dictLen+1 ascending u32 offsets, then
// the concatenated entry bytes. Entry strings are copied (dictionaries are
// small; the vectors are what matter for zero-copy).
func parseDict(col string, blob []byte, dictLen uint64) ([]string, error) {
	offTable := 4 * (dictLen + 1)
	if uint64(len(blob)) < offTable {
		return nil, badf("column %q: dictionary blob of %d bytes cannot hold %d offsets", col, len(blob), dictLen+1)
	}
	strBytes := blob[offTable:]
	dict := make([]string, dictLen)
	prev := binary.LittleEndian.Uint32(blob[0:4])
	if prev != 0 {
		return nil, badf("column %q: dictionary offsets start at %d, want 0", col, prev)
	}
	for i := uint64(0); i < dictLen; i++ {
		end := binary.LittleEndian.Uint32(blob[4*(i+1):])
		if end < prev || uint64(end) > uint64(len(strBytes)) {
			return nil, badf("column %q: dictionary offset %d out of order or out of range", col, i+1)
		}
		dict[i] = string(strBytes[prev:end])
		prev = end
	}
	if uint64(prev) != uint64(len(strBytes)) {
		return nil, badf("column %q: dictionary blob has %d unused trailing bytes", col, uint64(len(strBytes))-uint64(prev))
	}
	return dict, nil
}

// decodeValues attaches the value vector to the column, aliasing the segment
// when zeroCopy allows it.
func decodeValues(c *Column, seg []byte, rows int, zeroCopy bool) error {
	switch {
	case c.Width == 1:
		c.Codes8 = decodeFixed[uint8](seg, rows, zeroCopy)
	case c.Width == 2:
		c.Codes16 = decodeFixed[uint16](seg, rows, zeroCopy)
	case c.Width == 4:
		c.Codes32 = decodeFixed[uint32](seg, rows, zeroCopy)
	case c.Kind == Float64:
		c.Floats = decodeFixed[float64](seg, rows, zeroCopy)
	case c.Kind == Int64:
		c.Ints = decodeFixed[int64](seg, rows, zeroCopy)
	default:
		// A Go bool must be 0 or 1 in memory; validate before aliasing.
		for i, b := range seg {
			if b > 1 {
				return badf("column %q: bool byte at row %d is %#x", c.Name, i, b)
			}
		}
		c.Bools = bytesAsBools(decodeFixed[uint8](seg, rows, zeroCopy), rows)
	}
	return nil
}

// decodeFixed returns the n little-endian elements of seg: seg itself when
// zeroCopy allows it, a heap copy in host order otherwise.
func decodeFixed[T fixed](seg []byte, n int, zeroCopy bool) []T {
	if zeroCopy || n == 0 {
		return asSlice[T](seg, n)
	}
	out := make([]T, n)
	raw := asBytes(out)
	copy(raw, seg)
	if !hostLittleEndian {
		width := len(raw) / n
		for off := 0; off < len(raw); off += width {
			slices.Reverse(raw[off : off+width])
		}
	}
	return out
}

// OpenOptions tunes Open.
type OpenOptions struct {
	// NoMmap forces a heap load (os.ReadFile) even where mmap is available.
	NoMmap bool
}

// Open loads a snapshot file. Where the platform supports it the file is
// mmap'd read-only and the store's vectors alias the mapping — the "resident"
// mode that lets awared restarts and multiple replica processes serve a
// dataset with zero re-parse and one shared page-cache copy. Elsewhere (or
// with NoMmap) the file is read into the heap. Either way the snapshot is
// fully validated (structure, CRC, code ranges) before the store is returned.
func Open(path string) (*Store, error) { return OpenFile(path, OpenOptions{}) }

// OpenFile is Open with options.
func OpenFile(path string, o OpenOptions) (*Store, error) {
	if !o.NoMmap {
		if st, err := openMapped(path); err == nil || isSnapshotErr(err) {
			return st, err
		}
		// mmap machinery unavailable or failed (platform, filesystem):
		// fall back to a heap read rather than refuse to serve.
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("colstore: reading snapshot %s: %w", path, err)
	}
	st, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	st.path = path
	st.size = int64(len(data))
	return st, nil
}

// openMapped mmaps and decodes path. Snapshot-content errors are returned
// as-is (retrying a corrupt file from the heap cannot help); environment
// errors tell OpenFile to fall back.
func openMapped(path string) (*Store, error) {
	data, free, err := mmapFile(path)
	if err != nil {
		return nil, err
	}
	st, err := Decode(data)
	if err != nil {
		free()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	st.path = path
	st.size = int64(len(data))
	st.mapped = data
	st.onceFree = free
	return st, nil
}

// isSnapshotErr reports whether err is a content-level snapshot error (as
// opposed to an environment failure such as mmap being unsupported).
func isSnapshotErr(err error) bool {
	return errors.Is(err, ErrBadSnapshot) || errors.Is(err, ErrSnapshotVersion)
}
