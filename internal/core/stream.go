package core

// This file is the streaming, cancellable, bounded query engine. Every
// similarity query — DistanceQuery, ValueQuery, ShapeQuery, and the
// planner routes behind them — flows through one internal path,
// runQuery: candidate generation (feature index or shard scan) feeds a
// verification fan-out whose accepted matches pass through a collector
// that enforces QueryOptions (Limit, TopK), tightens the top-K pruning
// radius, and hands results to the caller's yield callback.
// Cancellation is cooperative: the caller's context is checked in shard
// scans, in vantage-point-tree traversal, and before every verification,
// and the worker pool always drains before runQuery returns — a
// cancelled query returns ctx.Err() promptly with no goroutine left
// behind.

import (
	"context"
	"fmt"
	"iter"
	"math"
	"sync"
	"sync/atomic"

	"seqrep/internal/dft"
	"seqrep/internal/dist"
	"seqrep/internal/seq"
)

// querySpec is one similarity query, compiled for runQuery: the stats
// labels, the candidate filter, the optional index route, and the
// verification kernel.
type querySpec struct {
	kind   string
	metric string
	// n is the exemplar length; > 0 restricts candidates to records of
	// that length (and selects the feature-index group).
	n int
	// lb is the feature-space pruning rule; nil forces the scan plan.
	lb *lowerBound
	// boundOf maps a verification radius onto the feature-space bound —
	// consulted mid-traversal when top-K shrinks the radius.
	boundOf func(radius float64) float64
	// initEps is the starting verification radius (+Inf = unbounded).
	initEps float64
	// prunes marks query kinds whose match deviation equals the distance
	// the radius bounds, so the top-K best-so-far feedback is sound.
	prunes bool
	// verify compares one record's exact samples at the given radius.
	verify func(rec *Record, radius float64) (Match, bool, error)
}

// chanClosed is the cheap cooperative-cancellation probe: a non-blocking
// receive on ctx.Done() (nil for background contexts, which never match).
func chanClosed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// runQuery executes spec under opts, calling yield once per match. It is
// the single execution path of every similarity query.
//
// yield is called from the query's worker goroutines — never
// concurrently, but on an unspecified goroutine — and returning false
// stops the query early (not an error). Without TopK, matches arrive as
// they are found, in no particular order; with TopK they arrive
// nearest-first after the search completes. On cancellation runQuery
// returns ctx.Err(); matches already yielded are valid members of the
// full answer.
func (db *DB) runQuery(ctx context.Context, spec *querySpec, opts QueryOptions, yield func(Match) bool) (QueryStats, error) {
	if err := opts.validate(); err != nil {
		return QueryStats{}, err
	}
	stats := QueryStats{Query: spec.kind, Metric: spec.metric}
	col := newCollector(opts, spec.initEps, spec.prunes && opts.TopK > 0, yield)
	if db.findex != nil && spec.lb != nil {
		stats.Plan = PlanIndex
		if opts.TopK > 0 {
			db.produceIndexedTopK(ctx, spec, col, &stats)
		} else {
			db.produceIndexed(ctx, spec, col, &stats)
		}
	} else {
		stats.Plan = PlanScan
		db.produceScan(ctx, spec, col, &stats)
	}
	if err := col.err(); err != nil {
		return QueryStats{}, err
	}
	if col.aborted.Load() {
		if err := ctx.Err(); err != nil {
			return QueryStats{}, err
		}
		return QueryStats{}, context.Canceled
	}
	col.drain()
	col.mu.Lock()
	stats.Matches = col.emitted
	stats.Truncated = col.truncated
	col.mu.Unlock()
	return stats, nil
}

// produceScan is the shard-parallel full-scan producer: workers claim
// whole shard snapshots and verify every length-matching record, checking
// the stop conditions between records.
func (db *DB) produceScan(ctx context.Context, spec *querySpec, col *collector, stats *QueryStats) {
	shardRecs := db.snapshotRecords()
	done := ctx.Done()
	var examined, candidates atomic.Int64
	db.forEachClaimed(len(shardRecs), func(i int) {
		var ex, cand int64
		for _, rec := range shardRecs[i] {
			if col.stopped() {
				break
			}
			if chanClosed(done) {
				col.aborted.Store(true)
				break
			}
			ex++
			if spec.n > 0 && rec.N != spec.n {
				continue
			}
			cand++
			radius := col.radius()
			m, ok, err := spec.verify(rec, radius)
			if err != nil {
				col.fail(err)
				break
			}
			if ok {
				col.found(m)
			} else if radius < spec.initEps {
				// Rejected at a tightened radius: it may have matched the
				// query's own tolerance, so the bounded answer is (possibly)
				// short of the unbounded one.
				col.noteTruncated()
			}
		}
		examined.Add(ex)
		candidates.Add(cand)
	})
	stats.Examined = int(examined.Load())
	stats.Candidates = int(candidates.Load())
}

// produceIndexed is the two-phase index producer used when no radius
// feedback is possible: candidates are generated under the length group's
// read lock into pooled scratch, then verified by the worker pool outside
// every lock (the archive- and reconstruction-reading part).
func (db *DB) produceIndexed(ctx context.Context, spec *querySpec, col *collector, stats *QueryStats) {
	done := ctx.Done()
	stop := func() bool {
		if col.stopped() {
			return true
		}
		if chanClosed(done) {
			col.aborted.Store(true)
			return true
		}
		return false
	}
	scratch := candPool.Get().(*[]*Record)
	cands := (*scratch)[:0]
	cands, stats.Examined, stats.Pruned = db.findex.collect(spec.n, *spec.lb, cands, stop)
	stats.Candidates = len(cands)
	db.forEachClaimed(len(cands), func(i int) {
		if stop() {
			return
		}
		m, ok, err := spec.verify(cands[i], col.radius())
		if err != nil {
			col.fail(err)
			return
		}
		if ok {
			col.found(m)
		}
	})
	clear(cands) // drop record pointers before pooling the scratch
	*scratch = cands[:0]
	candPool.Put(scratch)
}

// produceIndexedTopK is the interleaved index producer behind top-K:
// candidate generation streams rows to a verification fan-out while the
// vantage-point-tree traversal re-reads the pruning bound at every node,
// so the best K verified so far shrink the search mid-flight — the
// search examines strictly fewer vectors than the equivalent unbounded
// query whenever the K-th best distance drops below the tolerance.
func (db *DB) produceIndexedTopK(ctx context.Context, spec *querySpec, col *collector, stats *QueryStats) {
	done := ctx.Done()
	workers := db.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	candCh := make(chan *Record, 4*workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for rec := range candCh {
				if col.stopped() {
					continue // drain
				}
				if chanClosed(done) {
					col.aborted.Store(true)
					continue
				}
				radius := col.radius()
				m, ok, err := spec.verify(rec, radius)
				if err != nil {
					col.fail(err)
					continue
				}
				if ok {
					col.found(m)
				} else if radius < spec.initEps {
					col.noteTruncated() // see produceScan
				}
			}
		}()
	}
	var shrunk atomic.Bool
	bound := func() float64 {
		if col.stopped() {
			return -1
		}
		if chanClosed(done) {
			col.aborted.Store(true)
			return -1
		}
		r := col.radius()
		if r < spec.initEps {
			shrunk.Store(true)
		}
		return spec.boundOf(r)
	}
	emit := func(rec *Record) bool {
		select {
		case candCh <- rec:
			return true
		case <-done:
			col.aborted.Store(true)
			return false
		case <-col.haltCh:
			return false
		}
	}
	stats.Examined, stats.Pruned, stats.Candidates = db.findex.collectStream(spec.n, *spec.lb, bound, emit)
	close(candCh)
	wg.Wait()
	// A feature-pruned row under a tightened bound may have been an
	// unbounded match (by Parseval a true match's feature distance never
	// exceeds its real distance, so only a shrunken bound can prune one):
	// the answer is then possibly short of the unbounded one.
	if shrunk.Load() && stats.Pruned > 0 {
		col.noteTruncated()
	}
}

// ---- spec builders ----

func checkEps(eps float64) error {
	if math.IsNaN(eps) {
		return fmt.Errorf("core: tolerance is NaN")
	}
	if eps < 0 {
		return fmt.Errorf("core: negative tolerance %g", eps)
	}
	return nil
}

// distanceSpec compiles a DistanceQuery. eps may be +Inf (pure nearest-
// neighbour search under TopK).
func (db *DB) distanceSpec(exemplar seq.Sequence, m dist.Metric, eps float64) (*querySpec, error) {
	if len(exemplar) == 0 {
		return nil, fmt.Errorf("core: empty exemplar")
	}
	if m == nil {
		return nil, fmt.Errorf("core: nil metric")
	}
	if err := checkEps(eps); err != nil {
		return nil, err
	}
	spec := &querySpec{
		kind:    "distance",
		metric:  m.Name(),
		n:       len(exemplar),
		initEps: eps,
		prunes:  true,
		verify: func(rec *Record, radius float64) (Match, bool, error) {
			return db.distanceVerify(rec, exemplar, m, radius)
		},
	}
	if db.findex != nil {
		if lb, boundOf, ok := db.distanceLowerBound(exemplar, m, eps); ok {
			spec.lb, spec.boundOf = lb, boundOf
		}
	}
	return spec, nil
}

// valueSpec compiles a ValueQuery (±eps band semantics; the L2 detour
// eps·√n admits the feature bound).
func (db *DB) valueSpec(exemplar seq.Sequence, eps float64) (*querySpec, error) {
	if len(exemplar) == 0 {
		return nil, fmt.Errorf("core: empty exemplar")
	}
	if err := checkEps(eps); err != nil {
		return nil, err
	}
	spec := &querySpec{
		kind:    "value",
		metric:  "band",
		n:       len(exemplar),
		initEps: eps,
		prunes:  true,
		verify: func(rec *Record, radius float64) (Match, bool, error) {
			return db.valueVerify(rec, exemplar, radius)
		},
	}
	if db.findex != nil {
		vals := exemplar.Values()
		if qf, err := dft.Features(vals, db.findex.k); err == nil {
			scale := math.Sqrt(float64(len(exemplar)))
			pad := featurePad(vals, db.findex.k)
			slack := featureSlack(pad)
			boundOf := func(r float64) float64 { return slack(r * scale) }
			spec.lb = &lowerBound{qf: qf, bound: boundOf(eps), pad: pad}
			spec.boundOf = boundOf
		}
	}
	return spec, nil
}

// shapeSpec compiles a ShapeQuery: a full scan with fixed per-dimension
// tolerances (no distance radius, so top-K bounds memory and output but
// cannot feed pruning back).
func (db *DB) shapeSpec(exemplar seq.Sequence, tol ShapeTolerance) (*querySpec, error) {
	if tol.Peaks < 0 || tol.Height < 0 || tol.Spacing < 0 {
		return nil, fmt.Errorf("core: negative shape tolerance %+v", tol)
	}
	qf, err := db.profileOf(exemplar)
	if err != nil {
		return nil, err
	}
	qSig, err := shapeSignature(qf.peaks, qf.span, qf.base)
	if err != nil {
		return nil, fmt.Errorf("core: exemplar: %w", err)
	}
	return &querySpec{
		kind:    "shape",
		initEps: math.Inf(1),
		verify: func(rec *Record, _ float64) (Match, bool, error) {
			// Shape verification reads segment boundaries, so the
			// representation must be resident; a record removed mid-scan
			// is skipped like every other verification path.
			fs, err := db.materialize(rec)
			if err != nil {
				if err = db.verifyReadError(rec, err); err != nil {
					return Match{}, false, fmt.Errorf("core: shape query reading %q: %w", rec.ID, err)
				}
				return Match{}, false, nil
			}
			return shapeVerify(rec, fs, qSig, tol)
		},
	}, nil
}

// ---- exported context-first variants ----

// collectSorted materializes a streamed query into the classic sorted
// slice.
func (db *DB) collectSorted(ctx context.Context, spec *querySpec, opts QueryOptions) ([]Match, QueryStats, error) {
	var out []Match
	stats, err := db.runQuery(ctx, spec, opts, func(m Match) bool {
		out = append(out, m)
		return true
	})
	if err != nil {
		return nil, QueryStats{}, err
	}
	SortMatches(out)
	return out, stats, nil
}

// DistanceQueryCtx is DistanceQuery with a context and result bounds: the
// query stops at ctx's deadline or cancellation (returning ctx.Err()),
// after opts.Limit matches, or — with opts.TopK — returns the K nearest
// matches, feeding the best-so-far distance back into the index search as
// a shrinking pruning radius. eps may be math.Inf(1) under TopK for pure
// nearest-neighbour search.
func (db *DB) DistanceQueryCtx(ctx context.Context, exemplar seq.Sequence, m dist.Metric, eps float64, opts QueryOptions) ([]Match, QueryStats, error) {
	spec, err := db.distanceSpec(exemplar, m, eps)
	if err != nil {
		return nil, QueryStats{}, err
	}
	return db.collectSorted(ctx, spec, opts)
}

// ValueQueryCtx is ValueQuery with a context and result bounds (see
// DistanceQueryCtx).
func (db *DB) ValueQueryCtx(ctx context.Context, exemplar seq.Sequence, eps float64, opts QueryOptions) ([]Match, QueryStats, error) {
	spec, err := db.valueSpec(exemplar, eps)
	if err != nil {
		return nil, QueryStats{}, err
	}
	return db.collectSorted(ctx, spec, opts)
}

// ShapeQueryCtx is ShapeQuery with a context and result bounds (see
// DistanceQueryCtx; the shape dimensions admit no pruning radius, so
// TopK bounds the answer without accelerating the scan).
func (db *DB) ShapeQueryCtx(ctx context.Context, exemplar seq.Sequence, tol ShapeTolerance, opts QueryOptions) ([]Match, QueryStats, error) {
	spec, err := db.shapeSpec(exemplar, tol)
	if err != nil {
		return nil, QueryStats{}, err
	}
	return db.collectSorted(ctx, spec, opts)
}

// ---- exported streaming variants ----

// DistanceQueryStream streams a distance query's matches through yield as
// they are verified (see runQuery for the yield contract: serialized
// calls on unspecified goroutines; unordered unless opts.TopK is set;
// returning false stops the query without error). The returned stats
// describe the work actually performed, including early termination.
func (db *DB) DistanceQueryStream(ctx context.Context, exemplar seq.Sequence, m dist.Metric, eps float64, opts QueryOptions, yield func(Match) bool) (QueryStats, error) {
	spec, err := db.distanceSpec(exemplar, m, eps)
	if err != nil {
		return QueryStats{}, err
	}
	return db.runQuery(ctx, spec, opts, yield)
}

// ValueQueryStream streams a ±eps band query (see DistanceQueryStream).
func (db *DB) ValueQueryStream(ctx context.Context, exemplar seq.Sequence, eps float64, opts QueryOptions, yield func(Match) bool) (QueryStats, error) {
	spec, err := db.valueSpec(exemplar, eps)
	if err != nil {
		return QueryStats{}, err
	}
	return db.runQuery(ctx, spec, opts, yield)
}

// ShapeQueryStream streams a generalized approximate query (see
// DistanceQueryStream).
func (db *DB) ShapeQueryStream(ctx context.Context, exemplar seq.Sequence, tol ShapeTolerance, opts QueryOptions, yield func(Match) bool) (QueryStats, error) {
	spec, err := db.shapeSpec(exemplar, tol)
	if err != nil {
		return QueryStats{}, err
	}
	return db.runQuery(ctx, spec, opts, yield)
}

// ---- iterator (range-over-func) variants ----

// seqOf adapts a streamed query into an iter.Seq2 whose yield runs on the
// consumer's goroutine: a bridge goroutine executes the query and feeds a
// channel; breaking out of the range loop cancels the query and waits for
// it to unwind, so no goroutine outlives the loop.
func seqOf(ctx context.Context, run func(ctx context.Context, yield func(Match) bool) error) iter.Seq2[Match, error] {
	return func(yield func(Match, error) bool) {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		ch := make(chan Match)
		errc := make(chan error, 1)
		go func() {
			err := run(ctx, func(m Match) bool {
				select {
				case ch <- m:
					return true
				case <-ctx.Done():
					return false
				}
			})
			close(ch)
			errc <- err
		}()
		stopped := false
		for m := range ch {
			if stopped {
				continue // drain after the consumer broke out
			}
			if !yield(m, nil) {
				stopped = true
				cancel()
			}
		}
		if err := <-errc; err != nil && !stopped {
			yield(Match{}, err)
		}
	}
}

// DistanceQuerySeq returns the distance query as a Go 1.23 range-over-func
// iterator: matches stream as they are verified (nearest-first under
// opts.TopK, unordered otherwise), and a query failure or cancellation
// arrives as the final pair's non-nil error. Breaking out of the loop
// cancels the underlying query.
//
//	for m, err := range db.DistanceQuerySeq(ctx, exemplar, metric, eps, opts) {
//		if err != nil { ... }
//	}
func (db *DB) DistanceQuerySeq(ctx context.Context, exemplar seq.Sequence, m dist.Metric, eps float64, opts QueryOptions) iter.Seq2[Match, error] {
	return seqOf(ctx, func(ctx context.Context, yield func(Match) bool) error {
		_, err := db.DistanceQueryStream(ctx, exemplar, m, eps, opts, yield)
		return err
	})
}

// ValueQuerySeq is the iterator form of ValueQuery (see DistanceQuerySeq).
func (db *DB) ValueQuerySeq(ctx context.Context, exemplar seq.Sequence, eps float64, opts QueryOptions) iter.Seq2[Match, error] {
	return seqOf(ctx, func(ctx context.Context, yield func(Match) bool) error {
		_, err := db.ValueQueryStream(ctx, exemplar, eps, opts, yield)
		return err
	})
}

// ShapeQuerySeq is the iterator form of ShapeQuery (see DistanceQuerySeq).
func (db *DB) ShapeQuerySeq(ctx context.Context, exemplar seq.Sequence, tol ShapeTolerance, opts QueryOptions) iter.Seq2[Match, error] {
	return seqOf(ctx, func(ctx context.Context, yield func(Match) bool) error {
		_, err := db.ShapeQueryStream(ctx, exemplar, tol, opts, yield)
		return err
	})
}
