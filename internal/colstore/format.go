package colstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Snapshot format v2 (".aware" files). All integers little-endian; every
// segment is zero-padded to an 8-byte boundary so that, once the file is
// mmap'd (page-aligned), every value vector is naturally aligned and can be
// aliased in place. v2 stores each column the way it is held in memory
// (encoding.go): codes at the narrowest width, and a numeric column of at most
// 256 distinct values as a value dictionary plus one byte per row.
//
//	preamble (48 bytes)
//	  [ 0: 8)  magic   "AWARECS\n"
//	  [ 8:12)  version u32 (currently 2)
//	  [12:16)  flags   u32 (must be 0)
//	  [16:24)  rows    u64
//	  [24:28)  ncols   u32
//	  [28:32)  crc     u32  CRC-32C (Castagnoli) of every byte after the preamble
//	  [32:48)  reserved, must be zero
//	per column, sequentially:
//	  column header (32 bytes)
//	    [ 0: 1)  kind      u8 (Kind values)
//	    [ 1: 2)  width     u8   code width in bytes: 1, 2 or 4; 0 when the
//	                            column stores its rows
//	    [ 2: 4)  reserved, must be zero
//	    [ 4: 8)  nameLen   u32
//	    [ 8:16)  dictLen   u64  dictionary entries (0 unless coded)
//	    [16:24)  dictBytes u64  dictionary blob payload bytes (before padding)
//	    [24:32)  dataBytes u64  value segment payload bytes (before padding)
//	  name       nameLen bytes, zero-padded to 8
//	  dict blob  zero-padded to 8:
//	               categorical    u32 offsets[dictLen+1] then the concatenated
//	                              UTF-8 entries: sorted, unique, offsets ascending
//	               coded numeric  dictLen × u64 value bit patterns, ascending
//	                              by value (orderKey), no NaN
//	  values     zero-padded to 8:
//	               coded          rows × width bytes (codes < dictLen)
//	               float64/int64  rows × 8 bytes
//	               bool           rows × 1 byte  (0 or 1)
//
// Each kind has one width for a given dictionary: a categorical column's is
// codeWidth(dictLen), a numeric column is coded at width 1 with 1 to 256
// values or not at all, a bool column never. The CRC covers everything after
// the preamble, including padding; the preamble itself is covered by
// field-level validation (magic, version, flags, zero reserved bytes, and
// rows/ncols agreeing with the structure), so any single flipped byte
// anywhere in the file is detected. There is no v1 reader: a v1 file fails
// with ErrSnapshotVersion and is rebuilt from its source.
const (
	// SnapshotVersion is the current format version WriteSnapshot emits.
	SnapshotVersion = 2

	// SnapshotExt is the conventional file extension awared -data discovers.
	SnapshotExt = ".aware"

	preambleSize  = 48
	colHeaderSize = 32
	segmentAlign  = 8
)

var snapshotMagic = [8]byte{'A', 'W', 'A', 'R', 'E', 'C', 'S', '\n'}

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Typed snapshot errors. Every load failure wraps one of these, so callers
// (awared's -data scanner, awarestore verify, the corruption tests)
// distinguish "not/damaged snapshot" from "snapshot from a different format
// era" with errors.Is.
var (
	// ErrBadSnapshot means the file is not a snapshot or is corrupt
	// (truncated, flipped bytes, CRC mismatch, impossible structure).
	ErrBadSnapshot = errors.New("colstore: bad snapshot")
	// ErrSnapshotVersion means a well-formed preamble declares a version this
	// build does not read.
	ErrSnapshotVersion = errors.New("colstore: unsupported snapshot version")
)

// badf builds an ErrBadSnapshot with detail.
func badf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
}

// preamble is the decoded fixed file header.
type preamble struct {
	version uint32
	rows    uint64
	ncols   uint32
	crc     uint32
}

// encodePreamble renders the 48-byte preamble.
func encodePreamble(p preamble) [preambleSize]byte {
	var b [preambleSize]byte
	copy(b[0:8], snapshotMagic[:])
	binary.LittleEndian.PutUint32(b[8:12], p.version)
	binary.LittleEndian.PutUint32(b[12:16], 0) // flags
	binary.LittleEndian.PutUint64(b[16:24], p.rows)
	binary.LittleEndian.PutUint32(b[24:28], p.ncols)
	binary.LittleEndian.PutUint32(b[28:32], p.crc)
	return b
}

// parsePreamble validates and decodes the fixed header.
func parsePreamble(data []byte) (preamble, error) {
	var p preamble
	if len(data) < preambleSize {
		return p, badf("file is %d bytes, smaller than the %d-byte preamble", len(data), preambleSize)
	}
	if [8]byte(data[0:8]) != snapshotMagic {
		return p, badf("bad magic %q", data[0:8])
	}
	p.version = binary.LittleEndian.Uint32(data[8:12])
	if p.version != SnapshotVersion {
		return p, fmt.Errorf("%w: file declares version %d, this build reads %d; rebuild it with awarestore build or awarestore gen",
			ErrSnapshotVersion, p.version, SnapshotVersion)
	}
	if flags := binary.LittleEndian.Uint32(data[12:16]); flags != 0 {
		return p, badf("unknown flags %#x", flags)
	}
	p.rows = binary.LittleEndian.Uint64(data[16:24])
	p.ncols = binary.LittleEndian.Uint32(data[24:28])
	p.crc = binary.LittleEndian.Uint32(data[28:32])
	for i := 32; i < preambleSize; i++ {
		if data[i] != 0 {
			return p, badf("reserved preamble byte %d is %#x, want 0", i, data[i])
		}
	}
	if p.rows > math.MaxInt64/8 {
		return p, badf("implausible row count %d", p.rows)
	}
	if p.ncols > 1<<20 {
		return p, badf("implausible column count %d", p.ncols)
	}
	return p, nil
}

// colHeader is one decoded per-column header.
type colHeader struct {
	kind      Kind
	width     uint8
	reserved  uint16
	nameLen   uint32
	dictLen   uint64
	dictBytes uint64
	dataBytes uint64
}

// encodeColHeader renders the 32-byte column header.
func encodeColHeader(h colHeader) [colHeaderSize]byte {
	var b [colHeaderSize]byte
	b[0], b[1] = byte(h.kind), h.width
	binary.LittleEndian.PutUint32(b[4:8], h.nameLen)
	binary.LittleEndian.PutUint64(b[8:16], h.dictLen)
	binary.LittleEndian.PutUint64(b[16:24], h.dictBytes)
	binary.LittleEndian.PutUint64(b[24:32], h.dataBytes)
	return b
}

// parseColHeader decodes one column header (bounds already checked).
func parseColHeader(b []byte) colHeader {
	return colHeader{
		kind:      Kind(b[0]),
		width:     b[1],
		reserved:  binary.LittleEndian.Uint16(b[2:4]),
		nameLen:   binary.LittleEndian.Uint32(b[4:8]),
		dictLen:   binary.LittleEndian.Uint64(b[8:16]),
		dictBytes: binary.LittleEndian.Uint64(b[16:24]),
		dataBytes: binary.LittleEndian.Uint64(b[24:32]),
	}
}

// rowBytes is the value-segment size of one row of a column.
func rowBytes(kind Kind, width int) uint64 {
	switch {
	case width != 0:
		return uint64(width)
	case kind == Bool:
		return 1
	default:
		return 8
	}
}

// checkColHeader holds a decoded header to the v2 rules: a known kind at its
// one canonical width, the dictionary that width implies, and a value
// segment of exactly rows × the row size.
func checkColHeader(h colHeader, rows uint64) error {
	canonical := false
	switch h.kind {
	case Categorical:
		canonical = h.dictLen <= math.MaxUint32 && int(h.width) == codeWidth(int(h.dictLen))
	case Float64, Int64:
		canonical = h.width == 0 && h.dictLen == 0 && h.dictBytes == 0 ||
			h.width == 1 && h.dictLen >= 1 && h.dictLen <= MaxValues && h.dictBytes == 8*h.dictLen
	case Bool:
		canonical = h.width == 0 && h.dictLen == 0 && h.dictBytes == 0
	default:
		return badf("unknown kind %d", int(h.kind))
	}
	if !canonical || h.reserved != 0 {
		return badf("%s column coded at width %d with %d dictionary entries in %d bytes: not a v2 encoding", h.kind, h.width, h.dictLen, h.dictBytes)
	}
	if want := rowBytes(h.kind, int(h.width)) * rows; h.dataBytes != want {
		return badf("%s data segment declares %d bytes, %d rows need %d", h.kind, h.dataBytes, rows, want)
	}
	return nil
}

// pad8 returns the number of zero bytes needed to align n up to 8.
func pad8(n uint64) uint64 { return (segmentAlign - n%segmentAlign) % segmentAlign }
