package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"seqrep/internal/dft"
	"seqrep/internal/dist"
	"seqrep/internal/seq"
)

// Plan names for QueryStats.Plan.
const (
	// PlanIndex is the feature-index route: lower-bound candidate
	// generation over the columnar DFT feature store (through its
	// vantage-point tree when the length group is large enough), exact
	// verification of the survivors only.
	PlanIndex = "index"
	// PlanScan is the shard-parallel full scan.
	PlanScan = "scan"
	// PlanProgressive is the coarse-to-fine cascade: sketch bands, then
	// DFT candidate pruning, then exact verification (see progressive.go).
	PlanProgressive = "progressive"
)

// QueryStats reports how a query was executed: which plan the planner
// chose and how much work each stage did. Candidates + Pruned = Examined
// on the index plan; the scan plan verifies every length-matching record
// (Pruned stays 0). On the index plan Examined counts feature vectors
// actually compared — with a vantage-point tree up, that is typically far
// below the length group's population, the rest having been discarded
// wholesale by the tree's triangle-inequality pruning.
type QueryStats struct {
	// Query is the query family: "distance" or "value".
	Query string
	// Metric is the distance metric name ("band" for ValueQuery's ±ε
	// semantics).
	Metric string
	// Plan is PlanIndex or PlanScan.
	Plan string
	// Examined counts the records the plan looked at: feature vectors
	// compared (plus unindexed records) on the index plan, all records
	// on the scan plan.
	Examined int
	// Candidates counts the records whose exact samples were compared.
	Candidates int
	// Pruned counts the records eliminated by the feature lower bound
	// without reading their samples.
	Pruned int
	// Matches counts the results returned.
	Matches int
	// Sketched counts the records banded at the progressive sketch tier
	// (0 on non-progressive plans and when sketches are disabled).
	Sketched int
	// BandAccepted counts matches accepted on their error band alone —
	// finalized at a non-exact tier without reading samples.
	BandAccepted int
	// Truncated reports that a result bound (QueryOptions.Limit or TopK)
	// took effect: the query stopped before enumerating the full match
	// set, so the unbounded answer may hold more (or, under TopK, other)
	// matches. It is exact for Limit; under TopK it is conservative —
	// once the pruning radius has tightened, discarded work can no longer
	// be told apart from true non-matches, so Truncated may be true even
	// when the unbounded answer held exactly K matches. Counts above
	// describe only the work actually performed.
	Truncated bool
}

// String renders the stats as one EXPLAIN-style line.
func (st QueryStats) String() string {
	s := fmt.Sprintf("plan=%s query=%s metric=%s examined=%d candidates=%d pruned=%d matches=%d",
		st.Plan, st.Query, st.Metric, st.Examined, st.Candidates, st.Pruned, st.Matches)
	if st.Sketched > 0 || st.BandAccepted > 0 {
		s += fmt.Sprintf(" sketched=%d band_accepted=%d", st.Sketched, st.BandAccepted)
	}
	if st.Truncated {
		s += " truncated=true"
	}
	return s
}

// lowerBound is one metric's pruning rule on the feature index: the query
// feature vector, the feature-space threshold, and whether it compares
// against the z-normalized rows of the columnar store.
type lowerBound struct {
	qf    []float64
	bound float64
	z     bool
	// pad is the exemplar's featurePad, already part of bound.
	pad float64
}

// lbSlack widens a lower-bound threshold by a whisker of floating-point
// headroom: the no-false-dismissal guarantee is exact in real arithmetic,
// and the slack keeps rounding at the decision boundary from ever
// turning it into a dismissal. Feature-space thresholds add featurePad.
func lbSlack(bound float64) float64 { return bound*(1+1e-9) + 1e-12 }

// featurePad is the feature-distance headroom for an exemplar whose
// feature vector was computed from src by the first-k kernel. Stored rows
// may come from the full transform (the on-disk format keeps whatever
// computation wrote them), and each coefficient of either vector is
// within dft.CoeffDrift·‖·‖₂ of the other computation's, so over k
// coefficients the feature distance to a record x shifts by at most
// √k·CoeffDrift·(‖q‖₂ + ‖x‖₂). A record within the threshold b has
// ‖x‖₂ ≤ ‖q‖₂ + b, and the b part sits inside lbSlack's relative term,
// which leaves 2·√k·CoeffDrift·‖q‖₂. Unlike lbSlack's whiskers it scales
// with the exemplar, not the radius, so it matters at radius 0: an exact
// duplicate with a row from the other computation. A non-finite sample
// makes it NaN or +Inf, which disables pruning.
func featurePad(src []float64, k int) float64 {
	var ss float64
	for _, v := range src {
		ss += v * v
	}
	return 2 * dft.CoeffDrift * math.Sqrt(float64(k)*ss)
}

// featureSlack is lbSlack plus the exemplar's featurePad: the mapping
// from an L2 radius onto the feature-space pruning threshold.
func featureSlack(pad float64) func(float64) float64 {
	return func(b float64) float64 { return lbSlack(b) + pad }
}

// distanceLowerBound returns the feature-space pruning rule for metric m
// on this exemplar — plus the mapping from a verification radius onto
// the feature-space bound, for top-K searches that tighten the radius
// mid-flight — or ok=false when m admits no valid lower bound from the
// stored features and the planner must scan.
//
// The metric is recognized by its canonical name, and the rule is sound
// for the built-in semantics bearing that name:
//
//   - "l2": feature distance lower-bounds Euclidean distance (Parseval).
//   - "zl2": the same bound over the z-normalized feature vectors.
//
// L1 and L∞ fall through — the feature distance lower-bounds L2, which
// neither bounds L∞ from below nor is worth routing for L1 — as do the
// length-normalized variants and any custom metric.
func (db *DB) distanceLowerBound(exemplar seq.Sequence, m dist.Metric, eps float64) (*lowerBound, func(float64) float64, bool) {
	k := db.findex.k
	switch m.Name() {
	case dist.Euclidean.Name(), dist.ZEuclidean.Name():
		z := m.Name() == dist.ZEuclidean.Name()
		src := exemplar.Values()
		if z {
			src = dist.ZNormalizeValues(src)
		}
		qf, err := dft.Features(src, k)
		if err != nil {
			return nil, nil, false
		}
		pad := featurePad(src, k)
		slack := featureSlack(pad)
		return &lowerBound{qf: qf, bound: slack(eps), z: z, pad: pad}, slack, true
	}
	return nil, nil, false
}

// DistanceQueryStats is DistanceQuery plus execution statistics. The
// planner routes metrics with a feature-space lower bound (l2, zl2)
// through the index — pruning candidates whose feature distance already
// exceeds the tolerance, then verifying survivors exactly — and falls
// back to the shard-parallel scan for everything else. Both plans return
// byte-identical match sets.
func (db *DB) DistanceQueryStats(exemplar seq.Sequence, m dist.Metric, eps float64) ([]Match, QueryStats, error) {
	return db.DistanceQueryCtx(context.Background(), exemplar, m, eps, QueryOptions{})
}

// ValueQueryStats is ValueQuery plus execution statistics. The ±ε band
// semantics admit an L2 detour: a sequence inside the band satisfies
// L∞ ≤ ε, hence L2 ≤ ε·√n, hence feature distance ≤ ε·√n — so the index
// prunes with the scaled bound and verifies survivors with the same
// early-abandoning band kernel as the scan.
func (db *DB) ValueQueryStats(exemplar seq.Sequence, eps float64) ([]Match, QueryStats, error) {
	return db.ValueQueryCtx(context.Background(), exemplar, eps, QueryOptions{})
}

// verifyReadError classifies a storedSequence failure during query
// verification: when the record has since been removed (or replaced) the
// miss is just the scan's point-in-time snapshot outliving a concurrent
// Remove — the record is skipped, not an error. A read failure for a
// record still committed is a genuine storage fault and aborts the
// query.
func (db *DB) verifyReadError(rec *Record, err error) error {
	if cur, ok := db.Record(rec.ID); !ok || cur != rec {
		return nil
	}
	return err
}

// distanceVerify compares one record's exact samples against the
// exemplar under m — the shared verification step of both plans. The
// comparison runs through the metric's early-abandoning threshold kernel
// (squared-space accumulation, mid-loop bail; see dist.DistanceWithin),
// which returns the same decisions and distances as a full evaluation.
func (db *DB) distanceVerify(rec *Record, exemplar seq.Sequence, m dist.Metric, eps float64) (Match, bool, error) {
	stored, err := db.storedSequence(rec)
	if err != nil {
		if err = db.verifyReadError(rec, err); err != nil {
			return Match{}, false, fmt.Errorf("core: distance query reading %q: %w", rec.ID, err)
		}
		return Match{}, false, nil // removed mid-scan; skip
	}
	d, within, err := dist.DistanceWithin(m, exemplar, stored, eps)
	if err != nil {
		if errors.Is(err, dist.ErrLengthMismatch) {
			return Match{}, false, nil // reconstruction drifted in length; incomparable
		}
		return Match{}, false, fmt.Errorf("core: distance query %q under %s: %w", rec.ID, m.Name(), err)
	}
	if !within {
		return Match{}, false, nil
	}
	return Match{
		ID:         rec.ID,
		Exact:      d == 0,
		Deviations: map[string]float64{m.Name(): d},
	}, true, nil
}

// valueVerify runs the early-abandoning ±eps band check on one record —
// the shared verification step of both ValueQuery plans.
func (db *DB) valueVerify(rec *Record, exemplar seq.Sequence, eps float64) (Match, bool, error) {
	stored, err := db.storedSequence(rec)
	if err != nil {
		if err = db.verifyReadError(rec, err); err != nil {
			return Match{}, false, fmt.Errorf("core: value query reading %q: %w", rec.ID, err)
		}
		return Match{}, false, nil // removed mid-scan; skip
	}
	d, within, err := dist.BandDistance(exemplar, stored, eps)
	if err != nil || !within {
		return Match{}, false, nil // incomparable lengths or outside the band
	}
	return Match{
		ID:         rec.ID,
		Exact:      d == 0,
		Deviations: map[string]float64{"value": d},
	}, true, nil
}

// candPool recycles the planner's candidate scratch so steady-state
// queries allocate nothing for candidate generation.
var candPool = sync.Pool{
	New: func() any {
		s := make([]*Record, 0, 128)
		return &s
	},
}
