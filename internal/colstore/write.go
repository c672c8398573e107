package colstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

// floatBits is math.Float64bits, named for the conversion slow path.
func floatBits(v float64) uint64 { return math.Float64bits(v) }

// snapshotWriter streams a snapshot file: segments are appended through a
// buffered writer while the running CRC-32C and byte count are maintained,
// and finish patches the preamble (whose CRC is only known at the end),
// fsyncs and atomically renames the temp file into place. Both
// Store.WriteSnapshot (in-memory columns) and RowBuilder.Finish (spill files)
// write through it, so the two paths produce byte-identical files for the
// same logical content.
type snapshotWriter struct {
	f    *os.File
	bw   *bufio.Writer
	crc  uint32
	n    uint64 // payload bytes written after the preamble
	dest string
}

// newSnapshotWriter creates the temp file next to dest (same filesystem, so
// the final rename is atomic) and reserves the preamble.
func newSnapshotWriter(dest string) (*snapshotWriter, error) {
	dir := filepath.Dir(dest)
	f, err := os.CreateTemp(dir, ".aware-tmp-*")
	if err != nil {
		return nil, fmt.Errorf("colstore: creating snapshot temp file: %w", err)
	}
	w := &snapshotWriter{f: f, bw: bufio.NewWriterSize(f, 1<<20), dest: dest}
	var zero [preambleSize]byte
	if _, err := w.bw.Write(zero[:]); err != nil {
		w.abort()
		return nil, err
	}
	return w, nil
}

// write appends payload bytes, folding them into the CRC.
func (w *snapshotWriter) write(b []byte) error {
	if _, err := w.bw.Write(b); err != nil {
		return err
	}
	w.crc = crc32.Update(w.crc, castagnoli, b)
	w.n += uint64(len(b))
	return nil
}

// pad aligns the stream to the next 8-byte boundary with zeros.
func (w *snapshotWriter) pad() error {
	var zeros [segmentAlign]byte
	if p := pad8(w.n); p > 0 {
		return w.write(zeros[:p])
	}
	return nil
}

// writeColumnHeader emits one column's 32-byte header.
func (w *snapshotWriter) writeColumnHeader(h colHeader) error {
	b := encodeColHeader(h)
	return w.write(b[:])
}

// writeName emits the column name, padded.
func (w *snapshotWriter) writeName(name string) error {
	if err := w.write([]byte(name)); err != nil {
		return err
	}
	return w.pad()
}

// writeDict emits a categorical dictionary blob (offsets then bytes), padded.
func (w *snapshotWriter) writeDict(dict []string) error {
	offs := make([]byte, 4*(len(dict)+1))
	total := uint32(0)
	for i, v := range dict {
		binary.LittleEndian.PutUint32(offs[4*i:], total)
		total += uint32(len(v))
	}
	binary.LittleEndian.PutUint32(offs[4*len(dict):], total)
	if err := w.write(offs); err != nil {
		return err
	}
	for _, v := range dict {
		if err := w.write([]byte(v)); err != nil {
			return err
		}
	}
	return w.pad()
}

// dictBlobBytes returns the payload size writeDict will emit for dict.
func dictBlobBytes(dict []string) uint64 {
	n := uint64(4 * (len(dict) + 1))
	for _, v := range dict {
		n += uint64(len(v))
	}
	return n
}

// finish flushes the stream, patches the preamble with the final CRC, fsyncs
// and renames the temp file to dest.
func (w *snapshotWriter) finish(rows uint64, ncols uint32) (err error) {
	defer func() {
		if err != nil {
			w.abort()
		}
	}()
	if err = w.bw.Flush(); err != nil {
		return err
	}
	pre := encodePreamble(preamble{version: SnapshotVersion, rows: rows, ncols: ncols, crc: w.crc})
	if _, err = w.f.WriteAt(pre[:], 0); err != nil {
		return err
	}
	if err = w.f.Sync(); err != nil {
		return err
	}
	tmp := w.f.Name()
	if err = w.f.Close(); err != nil {
		w.f = nil
		return err
	}
	w.f = nil
	return os.Rename(tmp, w.dest)
}

// abort removes the temp file; safe to call after a failed finish.
func (w *snapshotWriter) abort() {
	if w.f != nil {
		name := w.f.Name()
		w.f.Close()
		os.Remove(name)
		w.f = nil
	}
}

// WriteSnapshot persists the store as a version-1 snapshot at path, written
// atomically (temp file + rename). The write is one sequential pass per
// column — O(columns) passes over memory, no row-at-a-time work — and on
// little-endian hosts each fixed-width vector is emitted as a single blit.
func (s *Store) WriteSnapshot(path string) error {
	w, err := newSnapshotWriter(path)
	if err != nil {
		return err
	}
	for _, c := range s.cols {
		if err := w.writeColumn(c); err != nil {
			w.abort()
			return fmt.Errorf("colstore: writing snapshot column %q: %w", c.Name, err)
		}
	}
	if err := w.finish(uint64(s.rows), uint32(len(s.cols))); err != nil {
		return fmt.Errorf("colstore: writing snapshot %s: %w", path, err)
	}
	return nil
}

// writeColumn emits one column: header, name, dictionary, values.
func (w *snapshotWriter) writeColumn(c *Column) error {
	dataBytes, err := kindDataBytes(c.Kind, uint64(c.Len()))
	if err != nil {
		return err
	}
	h := colHeader{kind: c.Kind, nameLen: uint32(len(c.Name)), dataBytes: dataBytes}
	if c.Kind == Categorical {
		h.dictLen = uint64(len(c.Dict))
		h.dictBytes = dictBlobBytes(c.Dict)
	}
	if err := w.writeColumnHeader(h); err != nil {
		return err
	}
	if err := w.writeName(c.Name); err != nil {
		return err
	}
	if c.Kind == Categorical {
		if err := w.writeDict(c.Dict); err != nil {
			return err
		}
	}
	if err := w.writeValues(c); err != nil {
		return err
	}
	return w.pad()
}

// writeValues emits the column's value vector in on-disk (little-endian)
// order: an aliasing blit on little-endian hosts, chunked conversion
// otherwise.
func (w *snapshotWriter) writeValues(c *Column) error {
	switch c.Kind {
	case Float64:
		if hostLittleEndian {
			return w.write(asBytes(c.Floats))
		}
		return writeConverted(w, len(c.Floats), 8, func(buf []byte, i int) {
			binary.LittleEndian.PutUint64(buf, floatBits(c.Floats[i]))
		})
	case Int64:
		if hostLittleEndian {
			return w.write(asBytes(c.Ints))
		}
		return writeConverted(w, len(c.Ints), 8, func(buf []byte, i int) {
			binary.LittleEndian.PutUint64(buf, uint64(c.Ints[i]))
		})
	case Categorical:
		if hostLittleEndian {
			return w.write(asBytes(c.Codes))
		}
		return writeConverted(w, len(c.Codes), 4, func(buf []byte, i int) {
			binary.LittleEndian.PutUint32(buf, c.Codes[i])
		})
	case Bool:
		return w.write(BoolsAsBytes(c.Bools))
	default:
		return fmt.Errorf("unknown kind %d", int(c.Kind))
	}
}

// writeConverted emits n elements of width bytes each through a scratch
// buffer, encoding one element per put call — the endian-portable slow path.
func writeConverted(w *snapshotWriter, n, width int, put func(buf []byte, i int)) error {
	const chunk = 8192
	buf := make([]byte, 0, chunk*8)
	for i := 0; i < n; i++ {
		buf = buf[:len(buf)+width]
		put(buf[len(buf)-width:], i)
		if len(buf)+width > cap(buf) {
			if err := w.write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		return w.write(buf)
	}
	return nil
}
