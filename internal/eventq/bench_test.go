package eventq

import (
	"math/rand"
	"testing"
)

// Steady-state churn at a realistic queue depth — the per-event cost the
// simulator pays for every deadline, quantum tick and fault edge it queues.
func BenchmarkPushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var q Queue[int]
	for i := 0; i < 1024; i++ {
		q.Push(rng.Float64()*100, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, _ := q.Pop()
		q.Push(it.Time+rng.Float64(), i)
	}
}

// Bulk insert of a full workload followed by a complete drain: an arrival
// and a deadline event per job queued up front. sim.Run no longer pays
// this — it keeps jobs that have not arrived outside the heap (Reserve,
// PushSeq) — but the benchmark prices the heap depth it avoids.
func BenchmarkBulkInsertDrain(b *testing.B) {
	const n = 8192
	rng := rand.New(rand.NewSource(2))
	times := make([]float64, n)
	for i := range times {
		times[i] = rng.Float64() * 1000
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var q Queue[int]
		for j, t := range times {
			q.Push(t, j)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
}

// Plan-replacement churn: bursts of same-time pushes (segment ends of a
// freshly installed plan) interleaved with pops, with many exact time ties.
func BenchmarkBurstPushInterleavedPop(b *testing.B) {
	var q Queue[int]
	for i := 0; i < 256; i++ {
		q.Push(float64(i), i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, _ := q.Pop()
		for j := 0; j < 4; j++ {
			q.Push(it.Time+float64(j%2), j)
		}
		for j := 0; j < 3; j++ {
			q.Pop()
		}
	}
}
