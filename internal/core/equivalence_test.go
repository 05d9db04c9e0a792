package core

// The planner's contract: both plans of a routed query return
// byte-identical match sets — the feature index prunes but never
// dismisses a true match. These tests check the contract on randomized
// workloads across every breaker × every metric × archive on/off, and
// under concurrent Ingest/Remove churn (run them with -race).

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"seqrep/internal/breaking"
	"seqrep/internal/dft"
	"seqrep/internal/dist"
	"seqrep/internal/seq"
	"seqrep/internal/store"
)

// smoothWalk builds a random but breaker-friendly sequence: a random walk
// whose step size is small against the breaking tolerance, riding on a
// slow oscillation so peaks and slope changes exist.
func smoothWalk(rng *rand.Rand, n int) seq.Sequence {
	vals := make([]float64, n)
	level := 10 * rng.Float64()
	for i := range vals {
		level += 0.4 * (rng.Float64() - 0.5)
		vals[i] = level + 3*float64(i%16)/16.0
	}
	return seq.New(vals)
}

// jitter returns a copy of s with per-sample noise of the given scale, so
// workloads contain near-duplicate families the interesting tolerances
// separate.
func jitter(rng *rand.Rand, s seq.Sequence, scale float64) seq.Sequence {
	out := s.Clone()
	for i := range out {
		out[i].V += scale * (rng.Float64() - 0.5)
	}
	return out
}

// equivalenceWorkload ingests a mixed-length corpus: two near-duplicate
// families plus singletons at the query length, and a handful of
// sequences at a different length.
func equivalenceWorkload(t *testing.T, db *DB, rng *rand.Rand, n int) (exemplar seq.Sequence) {
	t.Helper()
	baseA := smoothWalk(rng, n)
	baseB := smoothWalk(rng, n)
	for i := 0; i < 8; i++ {
		mustIngest(t, db, fmt.Sprintf("a-%02d", i), jitter(rng, baseA, 0.2))
		mustIngest(t, db, fmt.Sprintf("b-%02d", i), jitter(rng, baseB, 0.2))
	}
	for i := 0; i < 6; i++ {
		mustIngest(t, db, fmt.Sprintf("solo-%02d", i), smoothWalk(rng, n))
	}
	for i := 0; i < 4; i++ {
		mustIngest(t, db, fmt.Sprintf("short-%02d", i), smoothWalk(rng, n/2))
	}
	return jitter(rng, baseA, 0.1)
}

func breakersUnderTest() map[string]breaking.Breaker {
	return map[string]breaking.Breaker{
		"interpolation": breaking.Interpolation(0.5),
		"regression":    breaking.Regression(0.5),
		"bezier":        breaking.Bezier(0.5),
		"dp":            &breaking.DP{SegmentCost: 10, ErrorWeight: 1},
		"online":        breaking.NewOnline(0.5),
	}
}

// leafConfigs are the candidate-generation modes under test: the default
// (trees once groups are large enough), leaf 1 (vantage-point trees
// forced even on the suite's small groups), and -1 (trees disabled, the
// linear columnar feature scan).
var leafConfigs = []int{0, 1, -1}

// storageModes is the residency/storage dimension of the equivalence
// suite: fully resident in-memory ("mem"), archive-backed verification
// ("archive"), and a durable database under a 1-byte memory budget
// ("paged") where every exact verification pages its payload back in
// from the segment tier — the answers must be bit-identical in all
// three.
var storageModes = []string{"mem", "archive", "paged"}

// TestIndexedQueryEquivalence is the zero-false-dismissal property suite:
// for every breaker, every storage mode (in-memory, archived, paged
// under a tiny residency budget), for every candidate-generation mode
// (vantage-point tree, linear feature scan, default), under every
// built-in metric and a spread of tolerances, the planner's answer must
// equal the brute-force scan's exactly — ids, deviations, exactness and
// order.
func TestIndexedQueryEquivalence(t *testing.T) {
	epsCands := []float64{0, 0.3, 1, 4, 16, 64}
	totalPruned := 0
	for name, br := range breakersUnderTest() {
		for _, storage := range storageModes {
			for _, leaf := range leafConfigs {
				t.Run(fmt.Sprintf("%s/storage=%s/leaf=%d", name, storage, leaf), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(len(name)) * 7779))
					cfg := Config{Breaker: br, IndexLeaf: leaf}
					var db *DB
					switch storage {
					case "archive":
						cfg.Archive = store.NewMemArchive()
						db = mustDB(t, cfg)
					case "paged":
						db = pagedDB(t, cfg)
					default:
						db = mustDB(t, cfg)
					}
					exemplar := equivalenceWorkload(t, db, rng, 64)
					if storage == "paged" {
						// The checkpoint makes every payload durable and
						// unpinned; the 1-byte budget then evicts them
						// all, so each verification below pages in.
						if err := db.Checkpoint(); err != nil {
							t.Fatal(err)
						}
						st, ok := db.ResidencyStats()
						if !ok || st.Pinned != 0 || st.ResidentBytes > st.MemoryBudget {
							t.Fatalf("residency after checkpoint = %+v", st)
						}
					}
					if leaf == 1 {
						// Warm a query so the trees exist, then verify the
						// tree path is actually engaged.
						if _, _, err := db.DistanceQueryStats(exemplar, dist.Euclidean, 1); err != nil {
							t.Fatal(err)
						}
						if g := db.findex.group(len(exemplar), false); g == nil || g.tree == nil {
							t.Fatal("vantage-point tree not engaged at leaf=1")
						}
					}

					for _, m := range dist.Metrics() {
						for _, eps := range epsCands {
							indexed, istats, err := db.DistanceQueryStats(exemplar, m, eps)
							if err != nil {
								t.Fatalf("indexed %s eps=%g: %v", m.Name(), eps, err)
							}
							scanned, _, err := db.distanceScan(exemplar, m, eps)
							if err != nil {
								t.Fatalf("scan %s eps=%g: %v", m.Name(), eps, err)
							}
							if !reflect.DeepEqual(indexed, scanned) {
								t.Errorf("%s eps=%g: indexed %+v != scan %+v", m.Name(), eps, indexed, scanned)
							}
							switch m.Name() {
							case "l2", "zl2":
								if istats.Plan != PlanIndex {
									t.Errorf("%s: plan = %q, want index", m.Name(), istats.Plan)
								}
								if istats.Candidates+istats.Pruned != istats.Examined {
									t.Errorf("%s: stats don't add up: %+v", m.Name(), istats)
								}
								totalPruned += istats.Pruned
							default:
								if istats.Plan != PlanScan {
									t.Errorf("%s: plan = %q, want scan", m.Name(), istats.Plan)
								}
							}
						}
					}

					for _, eps := range epsCands {
						indexed, istats, err := db.ValueQueryStats(exemplar, eps)
						if err != nil {
							t.Fatalf("indexed value eps=%g: %v", eps, err)
						}
						scanned, _, err := db.valueScan(exemplar, eps)
						if err != nil {
							t.Fatalf("scan value eps=%g: %v", eps, err)
						}
						if !reflect.DeepEqual(indexed, scanned) {
							t.Errorf("value eps=%g: indexed %+v != scan %+v", eps, indexed, scanned)
						}
						if istats.Plan != PlanIndex {
							t.Errorf("value: plan = %q, want index", istats.Plan)
						}
						totalPruned += istats.Pruned
					}
				})
			}
		}
	}
	if totalPruned == 0 {
		t.Error("no query ever pruned a candidate: the suite is not exercising the index")
	}
}

// TestIndexedQueryEquivalenceConcurrentChurn interleaves the equivalence
// check with concurrent Ingest/Remove churn on a disjoint id space, once
// per candidate-generation mode (churn at leaf=1 hammers the tree
// tombstone/tail/rebuild machinery under the race detector). The two
// plans snapshot at different instants, so churned ids may legitimately
// differ between them — but the stable ids must agree exactly in every
// pair of answers, and fully once the churn stops.
func TestIndexedQueryEquivalenceConcurrentChurn(t *testing.T) {
	for _, leaf := range leafConfigs {
		for _, paged := range []bool{false, true} {
			t.Run(fmt.Sprintf("leaf=%d/paged=%v", leaf, paged), func(t *testing.T) {
				churnEquivalence(t, leaf, paged)
			})
		}
	}
}

func churnEquivalence(t *testing.T, leaf int, paged bool) {
	rng := rand.New(rand.NewSource(42))
	var db *DB
	if paged {
		// Paged: no archive (verification reads reconstructions through
		// the residency layer), 1-byte budget, durable tier to page
		// from. Checkpoints below race the churn, so eviction, paging,
		// pinning and tombstoning all run under the race detector.
		db = pagedDB(t, Config{IndexCoeffs: 4, IndexLeaf: leaf})
	} else {
		db = mustDB(t, Config{Archive: store.NewMemArchive(), IndexCoeffs: 4, IndexLeaf: leaf})
	}
	base := smoothWalk(rng, 64)
	for i := 0; i < 16; i++ {
		mustIngest(t, db, fmt.Sprintf("base-%02d", i), jitter(rng, base, 0.2))
	}
	if paged {
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	exemplar := jitter(rng, base, 0.1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			churnRng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("churn-%d-%d", w, i)
				if err := db.Ingest(id, jitter(churnRng, base, 0.2)); err != nil {
					t.Errorf("churn ingest: %v", err)
					return
				}
				if err := db.Remove(id); err != nil {
					t.Errorf("churn remove: %v", err)
					return
				}
			}
		}(w)
	}

	stable := func(matches []Match) []Match {
		out := make([]Match, 0, len(matches))
		for _, m := range matches {
			if len(m.ID) >= 5 && m.ID[:5] == "base-" {
				out = append(out, m)
			}
		}
		return out
	}
	for i := 0; i < 40; i++ {
		if paged && i%10 == 5 {
			// Mid-churn checkpoint: flushes and unpins the churned
			// records while queries below are paging — the eviction /
			// unpin / fault-in races the residency invariants must hold
			// through.
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		eps := float64(i%5) * 2
		indexed, _, err := db.DistanceQueryStats(exemplar, dist.Euclidean, eps)
		if err != nil {
			t.Fatalf("indexed: %v", err)
		}
		scanned, _, err := db.distanceScan(exemplar, dist.Euclidean, eps)
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		if got, want := stable(indexed), stable(scanned); !reflect.DeepEqual(got, want) {
			t.Fatalf("eps=%g: stable sets diverge: indexed %+v, scan %+v", eps, got, want)
		}
		vIndexed, _, err := db.ValueQueryStats(exemplar, eps)
		if err != nil {
			t.Fatalf("indexed value: %v", err)
		}
		vScanned, _, err := db.valueScan(exemplar, eps)
		if err != nil {
			t.Fatalf("scan value: %v", err)
		}
		if got, want := stable(vIndexed), stable(vScanned); !reflect.DeepEqual(got, want) {
			t.Fatalf("value eps=%g: stable sets diverge: indexed %+v, scan %+v", eps, got, want)
		}
	}
	close(stop)
	wg.Wait()

	// Quiesced: full equivalence, no filtering.
	for _, eps := range []float64{0, 1, 8, 64} {
		indexed, _, err := db.DistanceQueryStats(exemplar, dist.ZEuclidean, eps)
		if err != nil {
			t.Fatal(err)
		}
		scanned, _, err := db.distanceScan(exemplar, dist.ZEuclidean, eps)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(indexed, scanned) {
			t.Errorf("quiesced eps=%g: indexed %+v != scan %+v", eps, indexed, scanned)
		}
	}
}

// provenanceFamily is one routed query family of the mixed-provenance
// suites: its indexed plan, its scan oracle, its progressive form, and
// the deviation key carrying its exact distance.
type provenanceFamily struct {
	name   string
	devKey string
	exact  func(eps float64) ([]Match, QueryStats, error)
	scan   func(eps float64) ([]Match, QueryStats, error)
	prog   func(eps float64, yield func(ProgressiveMatch) bool) (QueryStats, error)
}

// provenanceFamilies lists every family the planner routes through the
// feature index: value, l2 and zl2.
func provenanceFamilies(db *DB, exemplar seq.Sequence) []provenanceFamily {
	families := []provenanceFamily{{
		name:   "value",
		devKey: "value",
		exact:  func(eps float64) ([]Match, QueryStats, error) { return db.ValueQueryStats(exemplar, eps) },
		scan:   func(eps float64) ([]Match, QueryStats, error) { return db.valueScan(exemplar, eps) },
		prog: func(eps float64, yield func(ProgressiveMatch) bool) (QueryStats, error) {
			return db.ValueQueryProgressive(context.Background(), exemplar, eps, QueryOptions{}, yield)
		},
	}}
	for _, m := range []dist.Metric{dist.Euclidean, dist.ZEuclidean} {
		families = append(families, provenanceFamily{
			name:   m.Name(),
			devKey: m.Name(),
			exact:  func(eps float64) ([]Match, QueryStats, error) { return db.DistanceQueryStats(exemplar, m, eps) },
			scan:   func(eps float64) ([]Match, QueryStats, error) { return db.distanceScan(exemplar, m, eps) },
			prog: func(eps float64, yield func(ProgressiveMatch) bool) (QueryStats, error) {
				return db.DistanceQueryProgressive(context.Background(), exemplar, m, eps, QueryOptions{}, yield)
			},
		})
	}
	return families
}

// legacyFeatures is the feature vector of vals as the full transform
// computes it — what builds before the first-k kernel persisted.
func legacyFeatures(vals []float64, k int) []float64 {
	coeffs := dft.Transform(vals)
	out := make([]float64, 2*k)
	for i := 0; i < k && i < len(coeffs); i++ {
		out[2*i], out[2*i+1] = real(coeffs[i]), imag(coeffs[i])
	}
	return out
}

// swapLegacyRows replaces the feature rows of the records pick selects
// with legacyFeatures ones and returns how many of those differ from the
// kernel's rows; it fails the test when nothing was swapped.
func swapLegacyRows(t *testing.T, db *DB, pick func(id string) bool) (differ int) {
	t.Helper()
	swapped := 0
	for _, recs := range db.snapshotRecords() {
		for _, rec := range recs {
			if !pick(rec.ID) {
				continue
			}
			vals, ok := db.comparisonValues(rec, nil)
			if !ok {
				t.Fatalf("%s: comparison values unavailable", rec.ID)
			}
			feats := legacyFeatures(vals, db.findex.k)
			zfeats := legacyFeatures(dist.ZNormalizeValues(vals), db.findex.k)
			if !reflect.DeepEqual(feats, rec.feats) || !reflect.DeepEqual(zfeats, rec.zfeats) {
				differ++
			}
			db.findex.remove(rec)
			rec.feats, rec.zfeats = feats, zfeats
			db.findex.add(rec)
			swapped++
		}
	}
	if swapped == 0 {
		t.Fatal("no feature rows swapped: the suite is not mixing provenance")
	}
	return differ
}

// checkProvenanceAt runs one family at eps on the indexed, scan and
// progressive plans, requires the indexed answer to equal the scan's bit
// for bit and the progressive one to accept exactly the scan's matches
// with the same deviations, and returns the scan's answer and the
// indexed plan's pruned count.
func checkProvenanceAt(t *testing.T, f provenanceFamily, eps float64) ([]Match, int) {
	t.Helper()
	scanned, _, err := f.scan(eps)
	if err != nil {
		t.Fatal(err)
	}
	indexed, stats, err := f.exact(eps)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Plan != PlanIndex {
		t.Errorf("%s eps=%v: plan = %q, want index", f.name, eps, stats.Plan)
	}
	if !reflect.DeepEqual(indexed, scanned) {
		t.Errorf("%s eps=%v: indexed %+v != scan %+v", f.name, eps, indexed, scanned)
	}
	frames, _ := collectFrames(t, func(yield func(ProgressiveMatch) bool) (QueryStats, error) {
		return f.prog(eps, yield)
	})
	accepted := acceptedOf(frames)
	if len(accepted) != len(scanned) {
		t.Errorf("%s eps=%v: progressive accepted %d, scan matched %d", f.name, eps, len(accepted), len(scanned))
	}
	for _, sm := range scanned {
		if pm, ok := accepted[sm.ID]; !ok || pm.Deviations[f.devKey] != sm.Deviations[f.devKey] {
			t.Errorf("%s eps=%v: progressive %+v != scan %+v for %s", f.name, eps, pm, sm, sm.ID)
		}
	}
	return scanned, stats.Pruned
}

// TestMixedProvenanceFeatures: feature rows computed by the full
// transform — what builds before the first-k kernel persisted — must
// prune soundly against exemplar vectors from the kernel. Half the
// records get their rows recomputed with dft.Transform; every routed
// query (l2, zl2, value, and their progressive forms), at radii equal to
// records' exact distances, must still equal the scan bit for bit.
func TestMixedProvenanceFeatures(t *testing.T) {
	for _, leaf := range leafConfigs {
		t.Run(fmt.Sprintf("leaf=%d", leaf), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1996))
			db := mustDB(t, Config{Archive: store.NewMemArchive(), IndexLeaf: leaf})
			exemplar := equivalenceWorkload(t, db, rng, 97)
			if swapLegacyRows(t, db, func(id string) bool { return id[len(id)-1]%2 == 0 }) == 0 {
				t.Fatal("no legacy row differs from the kernel's: the suite is not mixing provenance")
			}
			pruned := 0
			for _, f := range provenanceFamilies(db, exemplar) {
				all, _, err := f.scan(math.Inf(1))
				if err != nil {
					t.Fatal(err)
				}
				for _, rm := range all {
					_, p := checkProvenanceAt(t, f, rm.Deviations[f.devKey])
					pruned += p
				}
			}
			if pruned == 0 {
				t.Error("no query pruned a candidate: the suite is not exercising the index")
			}
		})
	}
}

// TestMixedProvenanceExactDuplicate: the regime where radius-relative
// slack is no help. A stored record identical to the exemplar has exact
// distance 0, so a query WITHIN 0 must return it; with its rows from the
// full transform and the exemplar's from the kernel, the two vectors
// differ by rounding that scales with ‖x‖₂. 540-sample strips on a
// body-temperature baseline (‖x‖₂ ≈ 860, like the ECG strips the server
// serves) put that gap above the planner's absolute 1e-12 whisker.
func TestMixedProvenanceExactDuplicate(t *testing.T) {
	const n = 540
	for _, leaf := range leafConfigs {
		t.Run(fmt.Sprintf("leaf=%d", leaf), func(t *testing.T) {
			rng := rand.New(rand.NewSource(37))
			db := mustDB(t, Config{Archive: store.NewMemArchive(), IndexLeaf: leaf})
			strip := func() seq.Sequence {
				vals := make([]float64, n)
				phase := 2 * math.Pi * rng.Float64()
				for i := range vals {
					vals[i] = 37 + 0.5*math.Sin(2*math.Pi*float64(i)/54+phase) + 0.05*rng.NormFloat64()
				}
				return seq.New(vals)
			}
			exemplar := strip()
			mustIngest(t, db, "dup", exemplar.Clone())
			for i := 0; i < 12; i++ {
				mustIngest(t, db, fmt.Sprintf("strip-%02d", i), strip())
			}
			swapLegacyRows(t, db, func(id string) bool { return id == "dup" || id[len(id)-1]%2 == 0 })
			dup, _ := db.Record("dup")
			qf, err := dft.Features(exemplar.Values(), db.findex.k)
			if err != nil {
				t.Fatal(err)
			}
			gap := dft.FeatureDist(qf, dup.feats)
			if gap <= 1e-12 {
				t.Fatalf("kernel/legacy feature gap %g is within the 1e-12 whisker: the suite does not reach the norm-scaled regime", gap)
			}
			t.Logf("kernel/legacy feature gap of the duplicate: %g", gap)
			for _, f := range provenanceFamilies(db, exemplar) {
				scanned, _ := checkProvenanceAt(t, f, 0)
				if len(scanned) == 0 || scanned[0].ID != "dup" {
					t.Errorf("%s: scan at eps=0 = %+v, want the duplicate", f.name, scanned)
				}
			}
		})
	}
}
