package dft

import (
	"fmt"
	"math/rand"
	"testing"

	"seqrep/internal/seq"
)

func randVals(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	return vals
}

func BenchmarkDFT512(b *testing.B) {
	vals := randVals(512, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DFT(vals)
	}
}

func BenchmarkFFT512(b *testing.B) {
	vals := randVals(512, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FFT(vals); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeatures measures the 8-coefficient feature vector at the
// lengths the system serves: the 97-sample exemplars of the query benches,
// the 540-sample ECG strips, and a power of two (where the full transform
// would have taken the FFT path).
func BenchmarkFeatures(b *testing.B) {
	for _, n := range []int{97, 540, 1024} {
		vals := randVals(n, 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Features(vals, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFIndexQuery(b *testing.B) {
	ix, err := NewFIndex(4)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := ix.Add(string(rune('a'+i%26))+string(rune('0'+i/26)), seq.New(randVals(128, int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
	q := seq.New(randVals(128, 999))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.Query(q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFIndexTreeVsLinear compares Query's vantage-point-tree
// candidate generation against the linear columnar feature scan on a
// clustered 20k-sequence corpus with a selective radius — the index-level
// view of the hot-path speedup the core planner inherits.
func BenchmarkFIndexTreeVsLinear(b *testing.B) {
	const n = 20000
	build := func(linear bool) (*FIndex, seq.Sequence) {
		rng := rand.New(rand.NewSource(77))
		ix, err := NewFIndex(4)
		if err != nil {
			b.Fatal(err)
		}
		items := make([]FItem, 0, n)
		var query seq.Sequence
		for i := 0; i < n; i++ {
			base := make([]float64, 64)
			level := float64(i%200) * 10 // 200 well-separated families
			for j := range base {
				base[j] = level + rng.NormFloat64()
			}
			s := seq.New(base)
			if i == 0 {
				query = s.Clone()
			}
			items = append(items, FItem{ID: string(rune('a'+i%26)) + string(rune('0'+i/26)), Seq: s})
		}
		ix.disableTree = linear
		if err := ix.AddBatch(items); err != nil {
			b.Fatal(err)
		}
		return ix, query
	}
	for _, mode := range []struct {
		name   string
		linear bool
	}{{"vptree", false}, {"linear", true}} {
		b.Run(mode.name, func(b *testing.B) {
			ix, q := build(mode.linear)
			if _, _, err := ix.Query(q, 3); err != nil { // warm: builds the tree
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matches, _, err := ix.Query(q, 3)
				if err != nil {
					b.Fatal(err)
				}
				if len(matches) == 0 {
					b.Fatal("query family not found")
				}
			}
		})
	}
}

func BenchmarkSubsequenceMatch(b *testing.B) {
	stored := seq.New(randVals(2048, 5))
	q := stored.Slice(700, 828).Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits, err := SubsequenceMatch("s", stored, q, 4, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		if len(hits) == 0 {
			b.Fatal("planted window not found")
		}
	}
}

// BenchmarkSubsequenceIncrementalVsRecompute measures the O(k)-per-shift
// sliding-window DFT against the per-window-recompute baseline it
// replaced (both return identical hits; see sliding_test.go).
func BenchmarkSubsequenceIncrementalVsRecompute(b *testing.B) {
	stored := seq.New(randVals(8192, 5))
	q := stored.Slice(3000, 3128).Clone()
	run := func(b *testing.B, match func(string, seq.Sequence, seq.Sequence, int, float64) ([]WindowMatch, error)) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hits, err := match("s", stored, q, 4, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			if len(hits) == 0 {
				b.Fatal("planted window not found")
			}
		}
	}
	b.Run("incremental", func(b *testing.B) { run(b, SubsequenceMatch) })
	b.Run("recompute", func(b *testing.B) { run(b, SubsequenceMatchRecompute) })
}
