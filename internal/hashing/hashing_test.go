package hashing

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestFNV1aMatchesStdlib: every typed write is the standard FNV-1a of its
// documented byte encoding — u64, ints, bools and float bits as 8
// little-endian bytes, a string as its bytes then its length.
func TestFNV1aMatchesStdlib(t *testing.T) {
	le := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	f := New()
	f.U64(0x0123456789abcdef)
	f.Int(-3)
	f.Bool(true)
	f.Bool(false)
	f.F64(math.Pi)
	f.Bytes([]byte("raw"))
	f.Str("class")

	ref := fnv.New64a()
	for _, b := range [][]byte{
		le(0x0123456789abcdef), le(uint64(math.MaxUint64 - 2)), le(1), le(0),
		le(math.Float64bits(math.Pi)), []byte("raw"), []byte("class"), le(5),
	} {
		ref.Write(b)
	}
	if got, want := f.Sum(), ref.Sum64(); got != want {
		t.Fatalf("FNV1a = %#x, stdlib FNV-1a of the encoding = %#x", got, want)
	}
	if got, want := New().Sum(), fnv.New64a().Sum64(); got != want {
		t.Errorf("New().Sum() = %#x, want the offset basis %#x", got, want)
	}
}

// TestSplitMix64 pins the first outputs of the splitmix64 generator
// seeded at 0: SplitMix64(k·γ) is its k+1-th output.
func TestSplitMix64(t *testing.T) {
	const gamma = 0x9e3779b97f4a7c15
	for k, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := SplitMix64(uint64(k) * gamma); got != want {
			t.Errorf("output %d = %#x, want %#x", k+1, got, want)
		}
	}
}
