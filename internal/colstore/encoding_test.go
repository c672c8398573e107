package colstore

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestFirstByteOutsideMatchesScalar holds the SWAR code check to the scalar
// loop it replaces for byte codes: every dictionary size n from 0 to 256,
// every window of 0 to 72 bytes at every alignment mod 8, and every position
// of the first out-of-range byte, or none. In-range bytes take the edge value
// n-1 and 0 as well as random ones; the bad byte takes n itself, 255 and
// random values past n; the bytes after it are arbitrary.
func TestFirstByteOutsideMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	buf := make([]uint8, 8+72)
	for n := 0; n <= MaxValues; n++ {
		for size := 0; size <= 72; size++ {
			off := (n + size) % 8
			window := buf[off : off+size]
			for bad := 0; bad <= size; bad++ {
				if n == 0 && bad > 0 {
					break // no byte is in range: the first one is bad
				}
				for i := range window {
					switch {
					case i > bad:
						window[i] = uint8(rng.Intn(256))
					case i == bad && n < MaxValues:
						window[i] = []uint8{uint8(n), 255, uint8(n + rng.Intn(256-n))}[i%3]
					case n > 0:
						window[i] = []uint8{uint8(n - 1), 0, uint8(rng.Intn(n))}[i%3]
					}
				}
				want := firstOutside(window, n)
				if got := firstByteOutside(window, n); got != want {
					t.Fatalf("n=%d, %d bytes at offset %d, bad byte at %d: got %d, want %d (%v)", n, size, off, bad, got, want, window)
				}
				if n == MaxValues && want != -1 {
					t.Fatalf("n=256: the scalar loop found a bad byte at %d", want)
				}
			}
		}
	}
}

// BenchmarkFirstOutside times NewStore's code check over 300k byte codes, all
// in range (the whole column is read), scalar against SWAR.
func BenchmarkFirstOutside(b *testing.B) {
	codes := make([]uint8, 300_000)
	for i := range codes {
		codes[i] = uint8(i % 120)
	}
	for _, bc := range []struct {
		name  string
		check func([]uint8, int) int
	}{{"scalar", firstOutside[uint8]}, {"swar", firstByteOutside}} {
		b.Run(fmt.Sprintf("%s/n=120", bc.name), func(b *testing.B) {
			b.SetBytes(int64(len(codes)))
			for i := 0; i < b.N; i++ {
				if bc.check(codes, 120) != -1 {
					b.Fatal("in-range codes reported out of range")
				}
			}
		})
	}
}
