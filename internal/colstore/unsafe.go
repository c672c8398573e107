package colstore

import (
	"unsafe"
)

// The snapshot format is little-endian on disk. On little-endian hosts (every
// platform this repository targets in practice) the fixed-width value vectors
// can therefore alias the raw file bytes in both directions: the writer blits
// a column with one Write, and the mmap loader serves queries straight out of
// the page cache with zero decode. Big-endian hosts fall back to explicit
// per-element conversion (convert.go) — slower, but correct everywhere.

// hostLittleEndian reports the byte order of the running machine.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// asBytes reinterprets a fixed-width numeric slice as its underlying bytes.
// Caller must ensure hostLittleEndian (the on-disk order) before using the
// result as file content.
func asBytes[T float64 | int64 | uint32](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(zero)))
}

// asSlice reinterprets b (which must be at least n*sizeof(T) bytes and
// 8-byte-aligned) as a slice of T without copying. Caller must ensure
// hostLittleEndian.
func asSlice[T float64 | int64 | uint32](b []byte, n int) []T {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

// BoolsAsBytes reinterprets a bool slice as bytes (1 byte per element holding
// 0 or 1, endianness-independent). The result aliases s and is for reading
// only: the snapshot writer blits it and the dataset byte kernel scans it.
func BoolsAsBytes(s []bool) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s))
}

// bytesAsBools reinterprets b as a bool slice. Every byte must already have
// been validated to be 0 or 1 — any other value is undefined behaviour for a
// Go bool.
func bytesAsBools(b []byte, n int) []bool {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*bool)(unsafe.Pointer(&b[0])), n)
}

// aligned8 reports whether the slice's backing array starts on an 8-byte
// boundary (mmap regions always do; heap byte slices almost always do, but
// the loader checks rather than assumes).
func aligned8(b []byte) bool {
	if len(b) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(&b[0]))%8 == 0
}
