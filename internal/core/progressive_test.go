package core

// The progressive guarantee property suite: for every metric × breaker ×
// index configuration × quality level it checks the contract stated at
// the top of progressive.go — every frame's band contains the record's
// true distance, refinement only tightens, nothing true is dismissed,
// early accepts stay within eps + MaxError, and the fully refined
// MaxError=0 run returns exactly the exact query's answer.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"seqrep/internal/breaking"
	"seqrep/internal/dist"
	"seqrep/internal/seq"
	"seqrep/internal/store"
	"seqrep/internal/synth"
)

// progressiveCorpus builds the suite's workload: the paper's two-peak
// fever family, an ECG beat, a rendered melody, flat and oscillating
// degenerates — all at the exemplar's length — plus off-length records
// the length filter must silently skip.
func progressiveCorpus(t testing.TB) map[string]seq.Sequence {
	t.Helper()
	rng := rand.New(rand.NewSource(1996))
	corpus := map[string]seq.Sequence{}

	exemplar, variants, err := synth.TwoPeakFamily(rng, 97)
	if err != nil {
		t.Fatal(err)
	}
	corpus["exemplar"] = exemplar
	for v, s := range variants {
		corpus[v.String()] = s
	}

	ecg, _, err := synth.ECG(rng, synth.ECGOpts{})
	if err != nil {
		t.Fatal(err)
	}
	corpus["ecg"] = seq.New(resampleTo(ecg.Values(), 97))

	intervals, err := synth.RandomMelody(rng, 8)
	if err != nil {
		t.Fatal(err)
	}
	melody, err := synth.Melody(intervals, synth.MelodyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	corpus["melody"] = seq.New(resampleTo(melody.Values(), 97))

	corpus["const"] = synth.Const(97, 36.8)
	corpus["sine"] = synth.Sine(97, 2.5, 24, 0)
	walk, err := synth.RandomWalk(rng, 97)
	if err != nil {
		t.Fatal(err)
	}
	corpus["walk"] = walk

	// Off-length records: must never appear in any frame.
	short, err := synth.Fever(synth.FeverOpts{Samples: 49})
	if err != nil {
		t.Fatal(err)
	}
	corpus["short-fever"] = short
	corpus["short-const"] = synth.Const(31, 5)
	return corpus
}

// resampleTo stretches or shrinks vals to exactly n samples by linear
// interpolation, so generator outputs of any natural length can join the
// fixed-length corpus.
func resampleTo(vals []float64, n int) []float64 {
	out := make([]float64, n)
	if len(vals) == 1 {
		for i := range out {
			out[i] = vals[0]
		}
		return out
	}
	for i := range out {
		pos := float64(i) * float64(len(vals)-1) / float64(n-1)
		j := int(pos)
		if j >= len(vals)-1 {
			out[i] = vals[len(vals)-1]
			continue
		}
		frac := pos - float64(j)
		out[i] = vals[j]*(1-frac) + vals[j+1]*frac
	}
	return out
}

func progressiveDB(t testing.TB, cfg Config, corpus map[string]seq.Sequence) *DB {
	t.Helper()
	db := mustDB(t, cfg)
	for id, s := range corpus {
		mustIngest(t, db, id, s)
	}
	return db
}

// collectFrames runs a progressive query and groups its frames per
// record in arrival order.
func collectFrames(t testing.TB, run func(yield func(ProgressiveMatch) bool) (QueryStats, error)) (map[string][]ProgressiveMatch, QueryStats) {
	t.Helper()
	frames := map[string][]ProgressiveMatch{}
	stats, err := run(func(pm ProgressiveMatch) bool {
		frames[pm.ID] = append(frames[pm.ID], pm)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return frames, stats
}

// trueDistances computes the suite's independent ground truth: the exact
// metric distance from the exemplar to every length-matching corpus
// sequence, straight through the metric kernel with no engine involved.
func trueDistances(t testing.TB, corpus map[string]seq.Sequence, exemplar seq.Sequence, m dist.Metric) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for id, s := range corpus {
		if len(s) != len(exemplar) {
			continue
		}
		d, err := m.Distance(exemplar, s)
		if err != nil {
			t.Fatalf("distance to %q: %v", id, err)
		}
		out[id] = d
	}
	return out
}

// checkFrameContract asserts the per-record frame invariants on one
// run's frames: exactly one final frame and it is last, tiers never
// regress, bands only tighten, and (when the record's true distance is
// known) every band contains it.
func checkFrameContract(t *testing.T, frames map[string][]ProgressiveMatch, truth map[string]float64) {
	t.Helper()
	for id, fs := range frames {
		for i, f := range fs {
			if f.Final != (i == len(fs)-1) {
				t.Fatalf("%s: frame %d/%d finality wrong: %+v", id, i, len(fs), f)
			}
			if f.Band.Lo < 0 || f.Band.Hi < f.Band.Lo {
				t.Fatalf("%s: malformed band %+v", id, f.Band)
			}
		}
		for i := 1; i < len(fs); i++ {
			prev, cur := fs[i-1], fs[i]
			if cur.Tier < prev.Tier {
				t.Errorf("%s: tier regressed %v -> %v", id, prev.Tier, cur.Tier)
			}
			if cur.Band.Lo < prev.Band.Lo || cur.Band.Hi > prev.Band.Hi {
				t.Errorf("%s: band widened %+v -> %+v", id, prev.Band, cur.Band)
			}
		}
		d, known := truth[id]
		if !known {
			t.Errorf("%s: frames for a record with no ground truth (off-length?)", id)
			continue
		}
		for _, f := range fs {
			if !f.Band.Contains(d) {
				t.Errorf("%s: band [%v, %v] at tier %v excludes true distance %v",
					id, f.Band.Lo, f.Band.Hi, f.Tier, d)
			}
		}
	}
}

// acceptedOf extracts the final accepted matches of a frame log.
func acceptedOf(frames map[string][]ProgressiveMatch) map[string]Match {
	out := map[string]Match{}
	for id, fs := range frames {
		last := fs[len(fs)-1]
		if last.Final && last.Match != nil {
			out[id] = *last.Match
		}
	}
	return out
}

// medianEps picks a tolerance from the corpus's own distance spread, so
// every metric gets an eps that genuinely splits the records.
func medianEps(truth map[string]float64) float64 {
	ds := make([]float64, 0, len(truth))
	for _, d := range truth {
		ds = append(ds, d)
	}
	for i := 1; i < len(ds); i++ { // insertion sort; the slice is tiny
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
	return ds[len(ds)/2]
}

// progressiveRunner abstracts DistanceQueryProgressive vs
// ValueQueryProgressive so the whole suite runs over both families.
type progressiveRunner struct {
	name string
	// truth computes the family's exact deviation (metric distance; max
	// pointwise deviation for value queries).
	truth func(t testing.TB, corpus map[string]seq.Sequence, exemplar seq.Sequence) map[string]float64
	run   func(db *DB, ctx context.Context, exemplar seq.Sequence, eps float64, opts QueryOptions, yield func(ProgressiveMatch) bool) (QueryStats, error)
	// exact runs the family's non-progressive query for the equivalence
	// property.
	exact func(db *DB, ctx context.Context, exemplar seq.Sequence, eps float64) ([]Match, error)
	// devKey is the Deviations key exact verification reports under.
	devKey string
}

func progressiveRunners() []progressiveRunner {
	runners := []progressiveRunner{{
		name: "value",
		truth: func(t testing.TB, corpus map[string]seq.Sequence, exemplar seq.Sequence) map[string]float64 {
			return trueDistances(t, corpus, exemplar, dist.Chebyshev)
		},
		run: func(db *DB, ctx context.Context, exemplar seq.Sequence, eps float64, opts QueryOptions, yield func(ProgressiveMatch) bool) (QueryStats, error) {
			return db.ValueQueryProgressive(ctx, exemplar, eps, opts, yield)
		},
		exact: func(db *DB, ctx context.Context, exemplar seq.Sequence, eps float64) ([]Match, error) {
			ms, _, err := db.ValueQueryCtx(ctx, exemplar, eps, QueryOptions{})
			return ms, err
		},
		devKey: "value",
	}}
	for _, m := range dist.Metrics() {
		m := m
		runners = append(runners, progressiveRunner{
			name: m.Name(),
			truth: func(t testing.TB, corpus map[string]seq.Sequence, exemplar seq.Sequence) map[string]float64 {
				return trueDistances(t, corpus, exemplar, m)
			},
			run: func(db *DB, ctx context.Context, exemplar seq.Sequence, eps float64, opts QueryOptions, yield func(ProgressiveMatch) bool) (QueryStats, error) {
				return db.DistanceQueryProgressive(ctx, exemplar, m, eps, opts, yield)
			},
			exact: func(db *DB, ctx context.Context, exemplar seq.Sequence, eps float64) ([]Match, error) {
				ms, _, err := db.DistanceQueryCtx(ctx, exemplar, m, eps, QueryOptions{})
				return ms, err
			},
			devKey: m.Name(),
		})
	}
	return runners
}

// TestProgressiveGuarantees is the property suite: every metric (plus
// the value family) × every paper breaker × index on/off, checking band
// containment, monotone tightening, exact equivalence at MaxError 0,
// bounded false positives under a MaxError budget, and tier caps.
func TestProgressiveGuarantees(t *testing.T) {
	corpus := progressiveCorpus(t)
	exemplar := corpus["exemplar"]
	breakers := []struct {
		name string
		br   breaking.Breaker
	}{
		{"interpolation", breaking.Interpolation(0.5)},
		{"regression", breaking.Regression(0.5)},
		{"bezier", breaking.Bezier(0.5)},
	}
	for _, b := range breakers {
		for _, indexed := range []bool{true, false} {
			for _, storage := range []string{"archive", "paged"} {
				cfg := Config{Breaker: b.br}
				if !indexed {
					cfg.IndexCoeffs = -1
				}
				var db *DB
				truthCorpus := corpus
				if storage == "archive" {
					cfg.Archive = store.NewMemArchive()
					db = progressiveDB(t, cfg, corpus)
				} else {
					// Paged: durable database, no archive, 1-byte
					// residency budget. After the checkpoint every exact
					// verification pages its payload in from the segment
					// tier; ground truth is computed on reconstructions,
					// because that is what archiveless verification
					// compares — the progressive contract must hold
					// bit-identically through the paging layer.
					db = pagedDB(t, cfg)
					for id, s := range corpus {
						mustIngest(t, db, id, s)
					}
					if err := db.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					truthCorpus = reconCorpus(t, db, corpus)
				}
				t.Run(fmt.Sprintf("%s/indexed=%v/%s", b.name, indexed, storage), func(t *testing.T) {
					for _, r := range progressiveRunners() {
						r := r
						t.Run(r.name, func(t *testing.T) {
							checkProgressiveFamily(t, db, truthCorpus, exemplar, r)
						})
					}
				})
			}
		}
	}
}

// reconCorpus replaces each corpus sequence with the database's stored
// reconstruction: without an archive, exact verification compares
// reconstructions, so ground truth must be computed on them too.
func reconCorpus(t testing.TB, db *DB, corpus map[string]seq.Sequence) map[string]seq.Sequence {
	t.Helper()
	out := make(map[string]seq.Sequence, len(corpus))
	for id := range corpus {
		s, err := db.Reconstruct(id)
		if err != nil {
			t.Fatalf("reconstruct %q: %v", id, err)
		}
		out[id] = s
	}
	return out
}

func checkProgressiveFamily(t *testing.T, db *DB, corpus map[string]seq.Sequence, exemplar seq.Sequence, r progressiveRunner) {
	ctx := context.Background()
	truth := r.truth(t, corpus, exemplar)

	// Property 1 — unbounded run: every length-matching record appears,
	// every band contains the true distance, bands only tighten, and
	// with MaxError 0 every final verdict is exact-tier with a point
	// band at (within float slack of) the true distance.
	frames, stats := collectFrames(t, func(yield func(ProgressiveMatch) bool) (QueryStats, error) {
		return r.run(db, ctx, exemplar, math.Inf(1), QueryOptions{}, yield)
	})
	checkFrameContract(t, frames, truth)
	if len(frames) != len(truth) {
		t.Errorf("unbounded run banded %d records, corpus has %d length-matching", len(frames), len(truth))
	}
	if stats.Plan != PlanProgressive {
		t.Errorf("plan = %q, want %q", stats.Plan, PlanProgressive)
	}
	for id, fs := range frames {
		last := fs[len(fs)-1]
		if last.Match == nil {
			t.Errorf("%s: unbounded run rejected a record", id)
			continue
		}
		if last.Tier != TierExact {
			t.Errorf("%s: MaxError=0 finalized at tier %v", id, last.Tier)
		}
		d := truth[id]
		if rel := math.Abs(last.Band.Hi-d) / math.Max(1, d); rel > 1e-9 {
			t.Errorf("%s: exact frame band [%v,%v] vs true distance %v", id, last.Band.Lo, last.Band.Hi, d)
		}
	}

	// Property 2 — exact equivalence: a finite-eps MaxError=0 run
	// returns exactly the exact query's match set, deviations included.
	eps := medianEps(truth)
	frames, _ = collectFrames(t, func(yield func(ProgressiveMatch) bool) (QueryStats, error) {
		return r.run(db, ctx, exemplar, eps, QueryOptions{}, yield)
	})
	checkFrameContract(t, frames, truth)
	accepted := acceptedOf(frames)
	exact, err := r.exact(db, ctx, exemplar, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != len(accepted) {
		t.Errorf("eps=%v: progressive accepted %d, exact query matched %d", eps, len(accepted), len(exact))
	}
	for _, em := range exact {
		pm, ok := accepted[em.ID]
		if !ok {
			t.Errorf("eps=%v: exact match %q missing from progressive answer (false dismissal)", eps, em.ID)
			continue
		}
		if pm.Deviations[r.devKey] != em.Deviations[r.devKey] {
			t.Errorf("%q: progressive deviation %v != exact %v", em.ID, pm.Deviations[r.devKey], em.Deviations[r.devKey])
		}
	}

	// Property 3 — error budget: with MaxError = w, early accepts have
	// band width ≤ w, and every accepted record's true distance is
	// within eps + accepted width. Exact matches must all still appear.
	w := eps / 2
	if w > 0 {
		frames, _ = collectFrames(t, func(yield func(ProgressiveMatch) bool) (QueryStats, error) {
			return r.run(db, ctx, exemplar, eps, QueryOptions{MaxError: w}, yield)
		})
		checkFrameContract(t, frames, truth)
		for id, fs := range frames {
			last := fs[len(fs)-1]
			if last.Match == nil {
				continue
			}
			if last.Tier != TierExact && last.Band.Width() > w {
				t.Errorf("%s: band-accepted with width %v > MaxError %v", id, last.Band.Width(), w)
			}
			if d := truth[id]; d > (eps+last.Band.Width())*(1+1e-9)+1e-12 {
				t.Errorf("%s: accepted with true distance %v > eps %v + width %v", id, d, eps, last.Band.Width())
			}
		}
		accepted = acceptedOf(frames)
		for _, em := range exact {
			if _, ok := accepted[em.ID]; !ok {
				t.Errorf("MaxError=%v: exact match %q missing (false dismissal)", w, em.ID)
			}
		}
	}

	// Property 4 — tier caps: capping at sketch or candidate finalizes
	// every surviving record at (or before) the cap, with bands still
	// containing the truth and exact matches never dismissed.
	for _, tierCap := range []Tier{TierSketch, TierCandidate} {
		frames, _ = collectFrames(t, func(yield func(ProgressiveMatch) bool) (QueryStats, error) {
			return r.run(db, ctx, exemplar, eps, QueryOptions{MaxTier: tierCap}, yield)
		})
		checkFrameContract(t, frames, truth)
		accepted = acceptedOf(frames)
		for id, fs := range frames {
			last := fs[len(fs)-1]
			if last.Tier > tierCap {
				t.Errorf("%s: tier %v beyond cap %v", id, last.Tier, tierCap)
			}
		}
		for _, em := range exact {
			if _, ok := accepted[em.ID]; !ok {
				t.Errorf("cap=%v: exact match %q missing (false dismissal)", tierCap, em.ID)
			}
		}
	}
}

// TestProgressiveReusesExemplarFeatures: when the compiled spec already
// carries the exemplar's feature vector over the values the cascade
// needs, the cascade uses that very slice instead of transforming the
// exemplar a second time; metrics without a pruning rule compute their
// own.
func TestProgressiveReusesExemplarFeatures(t *testing.T) {
	corpus := progressiveCorpus(t)
	db := progressiveDB(t, Config{}, corpus)
	exemplar := corpus["exemplar"]
	valueSpec, err := db.valueSpec(exemplar, 1)
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string]*querySpec{"value": valueSpec}
	for _, m := range []dist.Metric{dist.Euclidean, dist.ZEuclidean, dist.Chebyshev} {
		if specs[m.Name()], err = db.distanceSpec(exemplar, m, 1); err != nil {
			t.Fatal(err)
		}
	}
	for name, spec := range specs {
		ps := db.progressiveSpec(spec, exemplar, name)
		switch {
		case len(ps.qf) == 0:
			t.Errorf("%s: no exemplar features", name)
		case name == "linf":
			if spec.lb != nil {
				t.Error("linf compiled a pruning rule; the recompute branch is untested")
			}
		case spec.lb == nil:
			t.Errorf("%s: no pruning rule compiled", name)
		case &ps.qf[0] != &spec.lb.qf[0]:
			t.Errorf("%s: progressive spec recomputed the exemplar features", name)
		}
	}
}

// TestProgressiveRejectsTopK pins the documented incompatibility: a
// band-accepted answer has no exact distance to rank by.
func TestProgressiveRejectsTopK(t *testing.T) {
	corpus := progressiveCorpus(t)
	db := progressiveDB(t, Config{Archive: store.NewMemArchive()}, corpus)
	_, err := db.DistanceQueryProgressive(context.Background(), corpus["exemplar"], dist.Euclidean, 1,
		QueryOptions{TopK: 3}, func(ProgressiveMatch) bool { return true })
	if err == nil {
		t.Fatal("TopK + progressive accepted")
	}
}

// TestProgressiveLimit pins Limit semantics on the cascade: the run
// stops after Limit final accepts and reports truncation.
func TestProgressiveLimit(t *testing.T) {
	corpus := progressiveCorpus(t)
	db := progressiveDB(t, Config{Archive: store.NewMemArchive()}, corpus)
	accepts := 0
	stats, err := db.DistanceQueryProgressive(context.Background(), corpus["exemplar"], dist.Euclidean, math.Inf(1),
		QueryOptions{Limit: 2}, func(pm ProgressiveMatch) bool {
			if pm.Final && pm.Match != nil {
				accepts++
			}
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if accepts != 2 || stats.Matches != 2 || !stats.Truncated {
		t.Fatalf("limit run: accepts=%d stats=%+v", accepts, stats)
	}
}

// TestProgressiveCancellation: a cancelled context aborts the cascade
// with ctx.Err().
func TestProgressiveCancellation(t *testing.T) {
	corpus := progressiveCorpus(t)
	db := progressiveDB(t, Config{Archive: store.NewMemArchive()}, corpus)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.DistanceQueryProgressive(ctx, corpus["exemplar"], dist.Euclidean, math.Inf(1),
		QueryOptions{}, func(ProgressiveMatch) bool { return true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestProgressiveChurn runs the cascade concurrently with ingest/remove
// churn (meaningful under -race): the per-record frame contract must
// hold throughout, and records outside the churn set keep their band
// guarantee against the stable ground truth.
func TestProgressiveChurn(t *testing.T) {
	t.Run("resident", func(t *testing.T) { progressiveChurn(t, false) })
	t.Run("paged", func(t *testing.T) { progressiveChurn(t, true) })
}

func progressiveChurn(t *testing.T, paged bool) {
	corpus := progressiveCorpus(t)
	exemplar := corpus["exemplar"]
	var db *DB
	if paged {
		// Durable, archiveless, 1-byte budget: the churn recycles ids
		// (remove then re-ingest the same id), so the tracker's
		// ref-identity rules and the tombstone-authoritative fault-in
		// path run under the race detector while checkpoints below
		// evict and unpin concurrently.
		db = pagedDB(t, Config{})
		for id, s := range corpus {
			mustIngest(t, db, id, s)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		corpus = reconCorpus(t, db, corpus)
	} else {
		db = progressiveDB(t, Config{Archive: store.NewMemArchive()}, corpus)
	}
	truth := trueDistances(t, corpus, exemplar, dist.Euclidean)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(42 + g)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("churn-%d-%d", g, i%8)
				walk, err := synth.RandomWalk(rng, 97)
				if err != nil {
					t.Error(err)
					return
				}
				if err := db.Ingest(id, walk); err != nil && !errors.Is(err, ErrDuplicateID) {
					t.Errorf("churn ingest: %v", err)
					return
				}
				if i%3 == 2 {
					if err := db.Remove(id); err != nil && !errors.Is(err, ErrUnknownID) {
						t.Errorf("churn remove: %v", err)
						return
					}
				}
			}
		}(g)
	}

	for i := 0; i < 30; i++ {
		if paged && i%10 == 5 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		frames := map[string][]ProgressiveMatch{}
		_, err := db.DistanceQueryProgressive(context.Background(), exemplar, dist.Euclidean, math.Inf(1),
			QueryOptions{}, func(pm ProgressiveMatch) bool {
				frames[pm.ID] = append(frames[pm.ID], pm)
				return true
			})
		if err != nil {
			t.Fatal(err)
		}
		// The contract holds per record even mid-churn; ground truth is
		// only checked for the stable base corpus.
		stable := map[string][]ProgressiveMatch{}
		for id, fs := range frames {
			if _, ok := truth[id]; ok {
				stable[id] = fs
			} else {
				// Churn records still obey finality and tightening.
				for j, f := range fs {
					if f.Final != (j == len(fs)-1) {
						t.Fatalf("%s: churn frame finality wrong", id)
					}
				}
			}
		}
		checkFrameContract(t, stable, truth)
		for id := range truth {
			if _, ok := stable[id]; !ok {
				t.Errorf("iteration %d: stable record %q missing from answer", i, id)
			}
		}
	}
	close(stop)
	wg.Wait()
}
