package workloadspec

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dessched/internal/job"
	"dessched/internal/workload"
)

// arrivalGolden pins every arrival generator's output bit for bit: the job
// count and an FNV-1a digest (jobsDigest) of each stream. The tests that
// compare the generators against each other cannot see a drift they all
// share; these rows can.
var arrivalGolden = map[string]struct {
	n      int
	digest uint64
}{
	"generate/rate=30/seed=1/plain":    {1199, 0xef0744e7c86f06d7},
	"generate/rate=30/seed=1/bursts":   {1363, 0xaa69dce01499e363},
	"generate/rate=30/seed=1/partial":  {1199, 0x9fb866cbd1f6d9de},
	"generate/rate=30/seed=7/plain":    {1159, 0x453f21e088de783d},
	"generate/rate=30/seed=7/bursts":   {1244, 0xefbc3e40fae6dbe3},
	"generate/rate=30/seed=7/partial":  {1159, 0xf4d05cb306e08310},
	"generate/rate=200/seed=1/plain":   {8096, 0x54f0a06c6653d2e5},
	"generate/rate=200/seed=1/bursts":  {8346, 0x5093c294fa3be595},
	"generate/rate=200/seed=1/partial": {8096, 0x8605035be7aeabf4},
	"generate/rate=200/seed=7/plain":   {7881, 0x9cc8ff45f61af3ad},
	"generate/rate=200/seed=7/bursts":  {8431, 0x43be674b7ea22c9c},
	"generate/rate=200/seed=7/partial": {7881, 0x851491b835c49401},
	"diurnal":                          {16360, 0x14f252377b7a21c6},
	"compile/bimodal":                  {5276, 0x154ddbb460a9e0f5},
	"compile/diurnal-multiperiod":      {4627, 0x5f17f9e26829c63e},
	"compile/paper-default":            {5457, 0xe960f3c6c876aafe},
	"compile/stream-test":              {2066, 0x64cd9eda41495682},
	"compile/tie":                      {982, 0xa3f8241c6d44d967},
}

// jobsDigest folds everything observable about a job stream into an FNV-1a
// hash: per job its ID, the bits of Release, Deadline and Demand, Partial
// and Class.
func jobsDigest(jobs []job.Job) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) { binary.LittleEndian.PutUint64(b[:], v); h.Write(b[:]) }
	for _, j := range jobs {
		put(uint64(j.ID))
		put(math.Float64bits(j.Release))
		put(math.Float64bits(j.Deadline))
		put(math.Float64bits(j.Demand))
		if j.Partial {
			put(1)
		} else {
			put(0)
		}
		put(uint64(len(j.Class)))
		h.Write([]byte(j.Class))
	}
	return h.Sum64()
}

// arrivalCase is one generator configuration: its batch form and, where it
// has one, its lazy form.
type arrivalCase struct {
	name   string
	batch  func() ([]job.Job, error)
	stream func() (job.Source, error)
}

func arrivalCases(t *testing.T) []arrivalCase {
	var cases []arrivalCase
	for _, rate := range []float64{30, 200} {
		for _, seed := range []uint64{1, 7} {
			for _, variant := range []string{"plain", "bursts", "partial"} {
				c := workload.DefaultConfig(rate)
				c.Duration, c.Seed = 40, seed
				switch variant {
				case "bursts":
					c.Bursts = []workload.Burst{{Start: 5, End: 10, Multiplier: 2.5}, {Start: 20, End: 30, Multiplier: 0.4}}
				case "partial":
					c.PartialFraction = 0.3
				}
				cases = append(cases, arrivalCase{
					name:   fmt.Sprintf("generate/rate=%g/seed=%d/%s", rate, seed, variant),
					batch:  func() ([]job.Job, error) { return workload.Generate(c) },
					stream: func() (job.Source, error) { return workload.NewStream(c) },
				})
			}
		}
	}
	d := workload.DefaultDiurnal(120)
	d.Duration = 100
	cases = append(cases, arrivalCase{name: "diurnal", batch: func() ([]job.Job, error) { return workload.GenerateDiurnal(d) }})

	specs := map[string]*Spec{"stream-test": streamTestSpec(), "tie": tieSpec()}
	paths, err := filepath.Glob("../../examples/workloads/*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		s.Duration = math.Min(s.Duration, 60)
		specs[strings.TrimSuffix(filepath.Base(p), ".json")] = s
	}
	for name, s := range specs {
		cases = append(cases, arrivalCase{
			name:   "compile/" + name,
			batch:  func() ([]job.Job, error) { return Compile(s) },
			stream: func() (job.Source, error) { return NewStream(s) },
		})
	}
	return cases
}

// tieSpec declares two classes with the same pinned seed, rate, point demand
// and deadline: every release ties across them, so only declaration order
// orders the merged stream.
func tieSpec() *Spec {
	seed := uint64(9)
	class := func(name string) ClassSpec {
		return ClassSpec{Name: name, Rate: 25, Deadline: 0.2, Demand: DemandSpec{Dist: "point", Value: 150}, Seed: &seed}
	}
	return &Spec{Schema: SchemaV1, Name: "tie", Duration: 20, Seed: 1, Classes: []ClassSpec{class("first"), class("second")}}
}

// TestArrivalStreamsGolden pins Generate, NewStream, GenerateDiurnal,
// Compile and the spec Stream to their recorded bits, and each lazy source,
// drained in 0.5 s windows, to its batch twin's row.
func TestArrivalStreamsGolden(t *testing.T) {
	cases := arrivalCases(t)
	if len(cases) != len(arrivalGolden) {
		t.Errorf("%d cases, %d golden rows", len(cases), len(arrivalGolden))
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			jobs, err := c.batch()
			if err != nil {
				t.Fatal(err)
			}
			want, ok := arrivalGolden[c.name]
			if got := jobsDigest(jobs); !ok || len(jobs) != want.n || got != want.digest {
				t.Errorf("got %q: {%d, %#x}, want %+v", c.name, len(jobs), got, want)
			}
			if c.stream == nil {
				return
			}
			src, err := c.stream()
			if err != nil {
				t.Fatal(err)
			}
			streamed := drainSpec(t, src, 0.5)
			if len(streamed) != len(jobs) || jobsDigest(streamed) != jobsDigest(jobs) {
				t.Errorf("stream drained %d jobs, digest %#x; batch %d, %#x", len(streamed), jobsDigest(streamed), len(jobs), jobsDigest(jobs))
			}
		})
	}
}

// TestTieBrokenByDeclarationOrder: in the tie spec every release pairs up
// across the two classes, and the first-declared class always leads.
func TestTieBrokenByDeclarationOrder(t *testing.T) {
	jobs, err := Compile(tieSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) == 0 || len(jobs)%2 != 0 {
		t.Fatalf("%d jobs, want a positive even count", len(jobs))
	}
	for i := 0; i < len(jobs); i += 2 {
		a, b := jobs[i], jobs[i+1]
		if a.Release != b.Release || a.Class != "first" || b.Class != "second" {
			t.Fatalf("jobs %d, %d: %v, %v", i, i+1, a, b)
		}
	}
}
