// Package hashing holds the module's two non-cryptographic hashes: a
// 64-bit FNV-1a accumulator over typed fields, behind every configuration
// fingerprint, arrival-prefix hash, workload hash and span-name hash, and
// the splitmix64 finalizer, behind every derived seed and sticky route.
// Both are platform-independent, so their bits may be persisted: changing
// either moves snapshot fingerprints and sampled traces.
package hashing

import "math"

const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// FNV1a is a 64-bit FNV-1a accumulator over typed fields. Start one with
// New; the zero value is not the FNV offset basis. A concrete type with
// small methods, so that they inline on per-job paths.
type FNV1a struct{ h uint64 }

// New returns an accumulator at the FNV-1a offset basis.
func New() FNV1a { return FNV1a{h: offset64} }

// Sum returns the hash of everything written so far.
func (f FNV1a) Sum() uint64 { return f.h }

// U64 writes v as 8 little-endian bytes.
func (f *FNV1a) U64(v uint64) {
	for i := 0; i < 8; i++ {
		f.h ^= v & 0xff
		f.h *= prime64
		v >>= 8
	}
}

// F64 writes v by its IEEE-754 bits.
func (f *FNV1a) F64(v float64) { f.U64(math.Float64bits(v)) }

// Int writes v sign-extended to 64 bits.
func (f *FNV1a) Int(v int) { f.U64(uint64(int64(v))) }

// Bool writes v as the u64 1 or 0.
func (f *FNV1a) Bool(v bool) {
	var x uint64
	if v {
		x = 1
	}
	f.U64(x)
}

// Bytes writes b's bytes, with no length: the plain FNV-1a of a byte
// stream.
func (f *FNV1a) Bytes(b []byte) {
	for _, c := range b {
		f.h ^= uint64(c)
		f.h *= prime64
	}
}

// Str writes s's bytes followed by its length, so adjacent strings cannot
// trade bytes without changing the hash.
func (f *FNV1a) Str(s string) {
	for i := 0; i < len(s); i++ {
		f.h ^= uint64(s[i])
		f.h *= prime64
	}
	f.U64(uint64(len(s)))
}

// SplitMix64 is the finalizer of the splitmix64 generator: a cheap,
// well-mixed bijection of 64-bit values.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
