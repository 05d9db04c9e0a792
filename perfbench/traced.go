package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seqrep"
	"seqrep/api"
	"seqrep/internal/breaking"
	"seqrep/internal/core"
	"seqrep/internal/dft"
	"seqrep/internal/dist"
	"seqrep/internal/feature"
	"seqrep/internal/multires"
	"seqrep/internal/querylang"
	"seqrep/internal/rep"
	"seqrep/internal/seq"
	"seqrep/internal/server"
)

// tracedIngests is how many corpus records the traced pass ingests one
// at a time, with every build step replayed, instead of in batches.
const tracedIngests = 200

// traced is the in-process pass: the run's schedule replayed against an
// engine opened with the workload's flags, with a span around every call
// into a layer. Spans come only from this file: around the exemplar's
// load and the server handler, then around a second run of the statement
// (querylang.Parse and its run over a span-recording Database) and
// replays of the kernels on the inputs the engine saw. Times taken from
// that second run are replay times: the handler has just warmed what it
// reads.
type traced struct {
	b   *bench
	db  *seqrep.DB
	h   http.Handler
	cfg core.Config
	// sample holds the reconstructions and sketches of the records
	// ingested one at a time, for verification and band replays.
	sample []sampled

	mu         sync.Mutex // guards the fields below
	reqs       map[int]*reqInfo
	counts     map[string]float64
	userBytes  int64 // 8 bytes per sample written so far
	lastUser   int64 // userBytes at the last checkpoint
	ckpts      []ckptStat
	pinnedPeak int
	overBudget int64

	ckptMu sync.Mutex   // serializes checkpoints and their stats
	writes atomic.Int64 // acknowledged writes, for the checkpoint policy
}

type sampled struct {
	vals []float64
	sk   *multires.Sketch
}

// reqInfo is what one scheduled request did.
type reqInfo struct {
	kind    opKind
	cached  bool
	latency time.Duration // queries: from due to the handler's answer
	calls   []coreCall
}

// coreCall is one similarity call the statement made into the engine.
type coreCall struct {
	method      string
	progressive bool
	exemplar    seq.Sequence
	metric      dist.Metric // nil for value queries
	eps         float64
	stats       core.QueryStats
	matches     []string
	span        int
}

type ckptStat struct {
	setup          bool
	walBytes, user int64
	walRecords     uint64
	flushBytes     int64
	compacted      bool
	dur            time.Duration
}

// runTraced reports the per-layer metrics. An untraced HTTP pass gives
// the counts (/metrics deltas and response stats); the traced in-process
// pass over the same inputs and schedule gives the times.
func (b *bench) runTraced() error {
	if _, err := b.setup(0); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	b.runChecked("warm-up", b.w.phase(b.mix, count(warmup, b.w.rate), b.w.rate), true)
	n := count(time.Duration(b.o.seconds)*time.Second, b.w.rate)
	ops := b.w.phase(b.mix, n, b.w.rate)
	m0, err := b.scrape()
	if err != nil {
		return err
	}
	p := b.runChecked("measured phase", ops, true)
	m1, err := b.scrape()
	if err != nil {
		return err
	}
	b.putHTTPLayers(p, m0, m1)
	untraced := percentile(latencies(p, opQuery, false), 50)
	// The rate search swings by a third between runs on a shared
	// two-core machine, more than any bound a gate could hold, so it is
	// reported here, where metrics carry no bound.
	b.put("slo.max_rps", b.maxRPS())
	// A single boot's time moves with the host's speed over minutes, by
	// more than any bound a gate could hold, so recovery is reported here.
	if err := b.checkpoint(); err != nil {
		return err
	}
	rec, err := b.crashCycle()
	if err != nil {
		return err
	}
	b.put("slo.recovery_s", rec)
	b.srv.kill()
	b.srv = nil

	// The same inputs again, drawn from the same seed.
	g := newGen(b.o.seed)
	corpus := g.corpus(records)
	m := newMix(g, corpus, b.w.deleteShare)
	warm := b.w.phase(m, count(warmup, b.w.rate), b.w.rate)
	ops = b.w.phase(m, n, b.w.rate)

	dir := filepath.Join(b.dir, "traced")
	db, err := seqrep.OpenDir(dir, seqrep.Config{MemoryBudget: b.budget})
	if err != nil {
		return err
	}
	defer db.Close()
	srv, err := server.New(server.Config{DB: db, Snapshotter: &server.DirSnapshotter{Dir: dir}})
	if err != nil {
		return err
	}
	t := &traced{b: b, db: db, h: srv.Handler(), cfg: db.Config(), reqs: map[int]*reqInfo{}, counts: map[string]float64{}}
	tr := newTracer()
	if err := t.load(tr, corpus); err != nil {
		return err
	}
	t.run(newTracer(), warm) // the warm-up's spans are dropped
	t.mu.Lock()
	t.reqs, t.counts = map[int]*reqInfo{}, map[string]float64{}
	t.mu.Unlock()
	t.run(tr, ops)
	t.pageIn(tr, m)
	return t.report(tr, untraced)
}

// load ingests the corpus: in batches, except the last tracedIngests
// records, which go one at a time with their build steps replayed.
func (t *traced) load(tr *tracer, corpus []item) error {
	split := len(corpus) - tracedIngests
	items := make([]core.BatchItem, split)
	for i, it := range corpus[:split] {
		items[i] = core.BatchItem{ID: it.ID, Seq: seq.New(it.Values)}
	}
	if _, err := t.db.IngestBatch(items); err != nil {
		return fmt.Errorf("traced load: %w", err)
	}
	t.addUser(corpus[:split])
	for i, it := range corpus[split:] {
		req := -1 - i // setup requests stay out of the schedule's ids
		root := tr.begin("setup.ingest", req, -1)
		if err := t.ingest(tr, req, root, it); err != nil {
			return err
		}
		tr.end(root)
	}
	return t.checkpoint(tr, -1-len(corpus), -1, true)
}

func (t *traced) addUser(items []item) {
	t.mu.Lock()
	t.userBytes += int64(8 * samples(items))
	t.mu.Unlock()
}

func (t *traced) count(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// run replays ops on their schedule over conns workers.
func (t *traced) run(tr *tracer, ops []op) {
	dispatch(ops, conns, func(i int, due time.Time, _ time.Duration) {
		o := &ops[i]
		ri := &reqInfo{kind: o.kind}
		root := tr.begin("request", i, -1)
		var err error
		switch o.kind {
		case opQuery, opStream:
			err = t.query(tr, i, root, o, ri, due)
		case opIngest:
			err = t.ingest(tr, i, root, o.items[0])
		case opBatch:
			items := make([]core.BatchItem, len(o.items))
			for j, it := range o.items {
				items[j] = core.BatchItem{ID: it.ID, Seq: seq.New(it.Values)}
			}
			tr.timed("core.IngestBatch", i, root, func() { _, err = t.db.IngestBatch(items) })
			t.addUser(o.items)
		case opDelete:
			tr.timed("core.Remove", i, root, func() { err = t.db.Remove(o.del) })
		}
		if err == nil && o.kind.write() && t.b.w.ckptEvery > 0 && t.writes.Add(1)%int64(t.b.w.ckptEvery) == 0 {
			err = t.checkpoint(tr, i, root, false)
		}
		tr.end(root)
		t.sampleResidency()
		t.mu.Lock()
		t.reqs[i] = ri
		t.mu.Unlock()
		if err != nil {
			t.b.mu.Lock()
			t.b.failed++
			t.b.fail("traced request %d (%s %q): %v", i, o.kind, o.stmt, err)
			t.b.mu.Unlock()
		}
	})
}

// query loads the statement's exemplar, runs the statement through the
// server handler, then replays it layer by layer: parse, run over the
// span-recording Database, encode, and the kernels on the inputs the
// engine saw.
//
// The exemplar is loaded first, as querylang loads it (Raw, falling back
// to Reconstruct), so that on a paged node the load meets the payload
// cold, as the handler would; the handler then finds it resident.
func (t *traced) query(tr *tracer, req, root int, o *op, ri *reqInfo, due time.Time) error {
	path := "/v1/query"
	if o.kind == opStream {
		path = "/v1/query/stream"
	}
	if id := exemplarOf(o.stmt); id != "" {
		tr.timed("querylang.exemplar_load", req, root, func() {
			if _, err := t.db.Raw(id); err != nil {
				_, _ = t.db.Reconstruct(id)
			}
		})
	}
	rec := httptest.NewRecorder()
	hreq := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(o.body))
	tr.timed("server.handler", req, root, func() { t.h.ServeHTTP(rec, hreq) })
	ri.latency = time.Since(due)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	var resp api.QueryResponse
	if o.kind == opQuery {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return err
		}
		ri.cached = resp.Cached
	} else if bytes.Contains(rec.Body.Bytes(), []byte(`{"error":`)) {
		return fmt.Errorf("stream error frame: %s", rec.Body.Bytes())
	}

	var q querylang.Query
	var err error
	tr.timed("querylang.parse", req, root, func() { q, err = querylang.Parse(o.stmt) })
	if err != nil {
		return err
	}
	run := tr.begin("querylang.run", req, root)
	sdb := &spanDB{db: t.db, tr: tr, req: req, parent: run, ri: ri}
	if querylang.IsProgressive(q) {
		_, err = querylang.RunProgressive(context.Background(), sdb, q, func(core.ProgressiveMatch) bool { return true })
	} else {
		_, err = querylang.RunStream(context.Background(), sdb, q, func(core.Match) bool { return true })
	}
	tr.end(run)
	if err != nil {
		return err
	}
	if o.kind == opQuery {
		tr.timed("server.encode", req, root, func() { _, err = json.Marshal(resp) })
	}
	t.replayKernels(tr, req, root, ri)
	return err
}

// exemplarOf returns the id a statement names after LIKE, or "".
func exemplarOf(stmt string) string {
	f := strings.Fields(stmt)
	for i := 0; i+1 < len(f); i++ {
		if f[i] == "LIKE" {
			return f[i+1]
		}
	}
	return ""
}

// indexable reports whether the feature index can answer a call's
// metric: l2, zl2 and value queries plan from the exemplar's DFT
// features.
func indexable(c coreCall) bool {
	return c.metric == nil || c.metric.Name() == dist.Euclidean.Name() || c.metric.Name() == dist.ZEuclidean.Name()
}

// replayKernels times, outside the engine, the kernels a similarity call
// ran: one computation of the exemplar's DFT features, candidate
// verification and, for progressive calls, the sketch bands.
func (t *traced) replayKernels(tr *tracer, req, root int, ri *reqInfo) {
	k := t.cfg.IndexCoeffs
	for _, c := range ri.calls {
		if c.method == "ShapeQueryStream" {
			continue // shape queries compare feature profiles, not samples
		}
		vals := c.exemplar.Values()
		src := vals
		if c.metric != nil && c.metric.Name() == dist.ZEuclidean.Name() {
			src = dist.ZNormalizeValues(vals)
		}
		if indexable(c) {
			tr.timed("dft.exemplar_features", req, root, func() { _, _ = dft.Features(src, k) })
		}
		m := c.metric
		if m == nil {
			m = dist.Chebyshev // value queries: every sample within ±eps
		}
		for _, cand := range t.candidates(c) {
			tr.timed("dist.verify", req, root, func() { _, _, _ = dist.DistanceWithin(m, c.exemplar, cand, c.eps) })
		}
		if c.progressive {
			metric := "band"
			if c.metric != nil {
				metric = c.metric.Name()
			}
			qsk := multires.BuildSketch(vals, t.cfg.SketchBlock)
			nrec := 0
			tr.timed("multires.band", req, root, func() {
				for _, s := range t.sample {
					if len(s.vals) == len(vals) {
						multires.DistanceBand(qsk, s.sk, metric)
						nrec++
					}
				}
			})
			t.count("multires.band_records", float64(nrec))
		}
	}
}

// candidates returns up to 16 comparison sequences to verify against: the
// call's matches first, then sampled records of the exemplar's length.
func (t *traced) candidates(c coreCall) []seq.Sequence {
	const most = 16
	var out []seq.Sequence
	for _, id := range c.matches {
		if len(out) == most {
			return out
		}
		if s, err := t.db.Reconstruct(id); err == nil && len(s) == len(c.exemplar) {
			out = append(out, s)
		}
	}
	for _, s := range t.sample {
		if len(out) == most {
			break
		}
		if len(s.vals) == len(c.exemplar) {
			out = append(out, seq.New(s.vals))
		}
	}
	return out
}

// ingest writes one record, then replays its build steps.
func (t *traced) ingest(tr *tracer, req, root int, it item) error {
	var err error
	tr.timed("core.Ingest", req, root, func() { err = t.db.Ingest(it.ID, seq.New(it.Values)) })
	if err != nil {
		return err
	}
	t.addUser([]item{it})
	return t.replayBuild(tr, req, root, it.Values)
}

// replayBuild times the ingest pipeline's steps on vals: break, represent,
// extract, reconstruct (the comparison form without an archive), the
// plain and z-normalized DFT features, and the sketch.
func (t *traced) replayBuild(tr *tracer, req, root int, vals []float64) error {
	s := seq.New(vals)
	var segs []breaking.Segment
	var fs *rep.FunctionSeries
	var comp seq.Sequence
	var err error
	tr.timed("breaking.break", req, root, func() { segs, err = t.cfg.Breaker.Break(s) })
	if err != nil {
		return err
	}
	tr.timed("rep.build", req, root, func() { fs, err = rep.Build(s, segs, t.cfg.Representer) })
	if err != nil {
		return err
	}
	tr.timed("feature.extract", req, root, func() { _, err = feature.Extract(fs, t.cfg.Delta) })
	if err != nil {
		return err
	}
	tr.timed("rep.reconstruct", req, root, func() { comp, err = fs.Reconstruct() })
	if err != nil {
		return err
	}
	cv := comp.Values()
	tr.timed("dft.record_features", req, root, func() {
		_, _ = dft.Features(cv, t.cfg.IndexCoeffs)
		_, _ = dft.Features(dist.ZNormalizeValues(cv), t.cfg.IndexCoeffs)
	})
	var sk *multires.Sketch
	tr.timed("multires.sketch_build", req, root, func() { sk = multires.BuildSketch(cv, t.cfg.SketchBlock) })
	if req < 0 {
		t.mu.Lock()
		t.sample = append(t.sample, sampled{vals: cv, sk: sk})
		t.mu.Unlock()
	}
	return nil
}

// checkpoint runs DB.Checkpoint and records what it flushed.
func (t *traced) checkpoint(tr *tracer, req, root int, setup bool) error {
	t.ckptMu.Lock()
	defer t.ckptMu.Unlock()
	w0, _ := t.db.WALStats()
	s0, _ := t.db.SegmentStats()
	t.mu.Lock()
	user := t.userBytes - t.lastUser
	t.lastUser = t.userBytes
	t.mu.Unlock()
	var err error
	d := tr.timed("core.Checkpoint", req, root, func() { err = t.db.Checkpoint() })
	if err != nil {
		return err
	}
	s1, _ := t.db.SegmentStats()
	t.mu.Lock()
	t.ckpts = append(t.ckpts, ckptStat{
		setup: setup, walBytes: w0.Bytes, walRecords: w0.Records, user: user,
		flushBytes: s1.Bytes - s0.Bytes, compacted: s1.Compactions > s0.Compactions, dur: d,
	})
	t.mu.Unlock()
	return nil
}

func (t *traced) sampleResidency() {
	st, ok := t.db.ResidencyStats()
	if !ok {
		return
	}
	t.mu.Lock()
	t.pinnedPeak = max(t.pinnedPeak, st.Pinned)
	t.overBudget = max(t.overBudget, st.ResidentBytes-st.MemoryBudget)
	t.mu.Unlock()
}

// pageIn times DB.Representation on 64 uniformly drawn exemplars; the
// calls that counted a cold hit are page-ins.
func (t *traced) pageIn(tr *tracer, m *mix) {
	for i := 0; i < 64; i++ {
		id := m.exemplars[m.g.rng.Intn(len(m.exemplars))]
		before, ok := t.db.ResidencyStats()
		if !ok {
			return
		}
		d := tr.timed("core.Representation", -1_000_000-i, -1, func() { _, _ = t.db.Representation(id) })
		if after, _ := t.db.ResidencyStats(); after.ColdHits > before.ColdHits {
			t.count("resident.page_ins", 1)
			t.count("resident.page_in_ns", float64(d))
		}
	}
}

// spanDB is the querylang.Database the replay runs against: every call
// into the engine runs inside a core.<Method> span.
type spanDB struct {
	db          *seqrep.DB
	tr          *tracer
	req, parent int
	ri          *reqInfo
}

var _ querylang.ProgressiveDatabase = (*spanDB)(nil)

func (s *spanDB) MatchPattern(p string) (ids []string, err error) {
	s.tr.timed("core.MatchPattern", s.req, s.parent, func() { ids, err = s.db.MatchPattern(p) })
	return ids, err
}

func (s *spanDB) SearchPattern(p string) (hits []core.PatternHit, err error) {
	s.tr.timed("core.SearchPattern", s.req, s.parent, func() { hits, err = s.db.SearchPattern(p) })
	return hits, err
}

func (s *spanDB) PeakCount(k, tol int) (ms []core.Match, err error) {
	s.tr.timed("core.PeakCount", s.req, s.parent, func() { ms, err = s.db.PeakCount(k, tol) })
	return ms, err
}

func (s *spanDB) IntervalQuery(n, eps float64) (ms []core.IntervalMatch, err error) {
	s.tr.timed("core.IntervalQuery", s.req, s.parent, func() { ms, err = s.db.IntervalQuery(n, eps) })
	return ms, err
}

func (s *spanDB) Raw(id string) (r seq.Sequence, err error) {
	s.tr.timed("core.Raw", s.req, s.parent, func() { r, err = s.db.Raw(id) })
	return r, err
}

func (s *spanDB) Reconstruct(id string) (r seq.Sequence, err error) {
	s.tr.timed("core.Reconstruct", s.req, s.parent, func() { r, err = s.db.Reconstruct(id) })
	return r, err
}

func (s *spanDB) Config() core.Config { return s.db.Config() }

// similarity runs one similarity call in a span and records it.
func (s *spanDB) similarity(c coreCall, run func(note func(id string)) (core.QueryStats, error)) (core.QueryStats, error) {
	c.span = s.tr.begin("core."+c.method, s.req, s.parent)
	st, err := run(func(id string) { c.matches = append(c.matches, id) })
	s.tr.end(c.span)
	c.stats = st
	s.ri.calls = append(s.ri.calls, c)
	return st, err
}

func (s *spanDB) ValueQueryStream(ctx context.Context, ex seq.Sequence, eps float64, opts core.QueryOptions, yield func(core.Match) bool) (core.QueryStats, error) {
	return s.similarity(coreCall{method: "ValueQueryStream", exemplar: ex, eps: eps}, func(note func(string)) (core.QueryStats, error) {
		return s.db.ValueQueryStream(ctx, ex, eps, opts, func(m core.Match) bool { note(m.ID); return yield(m) })
	})
}

func (s *spanDB) DistanceQueryStream(ctx context.Context, ex seq.Sequence, m dist.Metric, eps float64, opts core.QueryOptions, yield func(core.Match) bool) (core.QueryStats, error) {
	return s.similarity(coreCall{method: "DistanceQueryStream", exemplar: ex, metric: m, eps: eps}, func(note func(string)) (core.QueryStats, error) {
		return s.db.DistanceQueryStream(ctx, ex, m, eps, opts, func(mt core.Match) bool { note(mt.ID); return yield(mt) })
	})
}

func (s *spanDB) ShapeQueryStream(ctx context.Context, ex seq.Sequence, tol core.ShapeTolerance, opts core.QueryOptions, yield func(core.Match) bool) (core.QueryStats, error) {
	return s.similarity(coreCall{method: "ShapeQueryStream", exemplar: ex}, func(note func(string)) (core.QueryStats, error) {
		return s.db.ShapeQueryStream(ctx, ex, tol, opts, func(m core.Match) bool { note(m.ID); return yield(m) })
	})
}

func (s *spanDB) ValueQueryProgressive(ctx context.Context, ex seq.Sequence, eps float64, opts core.QueryOptions, yield func(core.ProgressiveMatch) bool) (core.QueryStats, error) {
	return s.similarity(coreCall{method: "ValueQueryProgressive", progressive: true, exemplar: ex, eps: eps}, func(note func(string)) (core.QueryStats, error) {
		return s.db.ValueQueryProgressive(ctx, ex, eps, opts, func(pm core.ProgressiveMatch) bool {
			if pm.Match != nil {
				note(pm.ID)
			}
			return yield(pm)
		})
	})
}

func (s *spanDB) DistanceQueryProgressive(ctx context.Context, ex seq.Sequence, m dist.Metric, eps float64, opts core.QueryOptions, yield func(core.ProgressiveMatch) bool) (core.QueryStats, error) {
	return s.similarity(coreCall{method: "DistanceQueryProgressive", progressive: true, exemplar: ex, metric: m, eps: eps}, func(note func(string)) (core.QueryStats, error) {
		return s.db.DistanceQueryProgressive(ctx, ex, m, eps, opts, func(pm core.ProgressiveMatch) bool {
			if pm.Match != nil {
				note(pm.ID)
			}
			return yield(pm)
		})
	})
}
