package main

import (
	"fmt"
	"math"
	"math/rand"

	"seqrep/internal/seq"
	"seqrep/internal/synth"
)

// Corpus shape. Neither length is a power of two: the length sets the
// DFT cost, the feature-index length group and the payload size.
const (
	feverLen = 97  // 24 h of temperature at four samples an hour
	ecgLen   = 540 // the paper's ECG strip length
	// ecgPerCent and threePerCent are the ECG and three-peak records in
	// every hundred of the corpus.
	ecgPerCent   = 2
	threePerCent = 1
	// familySize is the number of fever curves drawn around one family's
	// peak hours and heights, so that similarity queries have neighbours.
	familySize = 25
)

// item is one generated sequence, identified by the id the benchmark
// ingests it under.
type item struct {
	ID     string
	Values []float64
}

// feverFamily holds the parameters one family of fever curves is
// jittered around.
type feverFamily struct {
	first, second, height, width, baseline float64
}

// gen draws every input of a run from one seeded source, so the same seed
// always yields the same corpus, writes and statements.
type gen struct {
	rng      *rand.Rand
	families []feverFamily
	next     int   // sequence number of the next generated id
	kinds    *deck // fever, ECG and three-peak records, per hundred
}

func newGen(seed int64) *gen {
	return &gen{
		rng:   rand.New(rand.NewSource(seed)),
		kinds: &deck{weights: []int{100 - ecgPerCent - threePerCent, ecgPerCent, threePerCent}},
	}
}

// record draws the next corpus record. Kinds come from a deck shuffled
// with the seed, so every hundred records hold exactly 2 ECG strips and
// 1 three-peak control: a count left to chance put the 1000 single
// ingests' p99 inside the ECG class on some seeds and on its border on
// others.
func (g *gen) record(prefix string) item {
	g.next++
	id := fmt.Sprintf("%s%06d", prefix, g.next)
	switch g.kinds.deal(g.rng) {
	case 1:
		return item{ID: id + "e", Values: g.ecg()}
	case 2:
		return item{ID: id + "t", Values: g.threePeak()}
	default:
		return item{ID: id + "f", Values: g.fever()}
	}
}

func (g *gen) fever() []float64 {
	if len(g.families) == 0 || g.rng.Intn(familySize) == 0 {
		g.families = append(g.families, feverFamily{
			first:    5 + 5*g.rng.Float64(),
			second:   13 + 7*g.rng.Float64(),
			height:   4 + 6*g.rng.Float64(),
			width:    1.2 + 1.2*g.rng.Float64(),
			baseline: 96.5 + 1.5*g.rng.Float64(),
		})
	}
	f := g.families[g.rng.Intn(len(g.families))]
	j := func(scale float64) float64 { return scale * (2*g.rng.Float64() - 1) }
	s, err := synth.Fever(synth.FeverOpts{
		Samples:    feverLen,
		Baseline:   f.baseline + j(0.3),
		PeakHeight: f.height + j(0.4),
		PeakWidth:  f.width + j(0.1),
		FirstPeak:  f.first + j(0.3),
		SecondPeak: f.second + j(0.3),
	})
	if err != nil {
		panic(err) // fixed, valid options: only a bug reaches here
	}
	return g.noisy(s, 0.05)
}

func (g *gen) threePeak() []float64 {
	base := 96.5 + 1.5*g.rng.Float64()
	peaks := make([]synth.Peak, 3)
	for i := range peaks {
		peaks[i] = synth.Peak{
			Center: 4 + 7*float64(i) + 2*g.rng.Float64(),
			Height: 5 + 4*g.rng.Float64(),
			Width:  1.2 + 0.4*g.rng.Float64(),
		}
	}
	s, err := synth.Bumps(0, 24, feverLen, base, peaks)
	if err != nil {
		panic(err)
	}
	return g.noisy(s, 0.05)
}

// ecg draws a 540-sample strip with a seeded RR interval and jitter, its
// amplitude scaled to the fever curves' 96–108 range.
func (g *gen) ecg() []float64 {
	s, _, err := synth.ECG(g.rng, synth.ECGOpts{
		Samples:    ecgLen,
		RRInterval: 110 + 40*g.rng.Float64(),
		RRJitter:   4 * g.rng.Float64(),
		Amplitude:  8,
		NoiseStd:   0.05,
		FirstR:     30 + 60*g.rng.Float64(),
	})
	if err != nil {
		panic(err)
	}
	vals := s.Values()
	for i := range vals {
		vals[i] = round4(vals[i] + 99)
	}
	return vals
}

func (g *gen) noisy(s seq.Sequence, std float64) []float64 {
	vals := s.Values()
	for i := range vals {
		vals[i] = round4(vals[i] + std*g.rng.NormFloat64())
	}
	return vals
}

// round4 keeps four decimals, so request bodies stay small.
func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }

// feverRecord draws the next record as a fever curve: writes whose
// replay cost must not depend on the seed.
func (g *gen) feverRecord(prefix string) item {
	g.next++
	return item{ID: fmt.Sprintf("%s%06df", prefix, g.next), Values: g.fever()}
}

// corpus draws n records.
func (g *gen) corpus(n int) []item {
	out := make([]item, n)
	for i := range out {
		out[i] = g.record("c")
	}
	return out
}
