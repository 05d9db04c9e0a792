// Perfbench is the end-to-end benchmark of seqserved: it boots a real
// server on an empty data directory, loads a seeded corpus over HTTP,
// drives one workload's open-loop traffic over at most two keep-alive
// connections, checks every answer it can against an in-process oracle
// and the acknowledged writes against a crash, and prints the metrics as
// one JSON object on the last line of standard output. With -trace 1 it
// instead reports per-layer metrics from a traced in-process pass. See
// README.md for the workloads, the metrics and the layer each one tracks.
//
//	perfbench -bin seqserved -work DIR -workload similarity -seed 1 -seconds 15 -trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Fixed settings of every run.
const (
	conns        = 2 // keep-alive connections: nproc of the reference box
	records      = 4000
	setupRuns    = 3   // setups per run; setup_s is their median
	batchSize    = 250 // corpus load batch size
	warmup       = time.Second
	probeTime    = 1200 * time.Millisecond
	probeDepth   = 5    // bisection steps over a 32-rung ladder
	singleLoads  = 1000 // corpus records each set-up loads one /v1/ingest at a time
	crashTail    = 50   // acknowledged ingests between the final checkpoint and the kill
	crashes      = 9    // SIGKILL and reboot cycles; slo.recovery_s is their median
	oracleChecks = 32
	// lagLimitMS bounds the generator's p99 dispatch lateness; a run
	// whose generator ran later than this measured its own scheduling,
	// not the server, and is invalid.
	lagLimitMS = 50.0
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string
	work     string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "similarity", "workload name: similarity or durable-paged")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", 15, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced pass instead of end-to-end ones")
	flag.StringVar(&o.bin, "bin", "", "seqserved binary")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for data directories and logs")
	flag.Parse()
	o.trace = trace == 1
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench holds one run's state.
type bench struct {
	o      options
	w      *workload
	g      *gen
	corpus []item
	mix    *mix
	c      *http.Client
	dir    string // this run's scratch directory
	srv    *serverProc
	data   string // the serving data directory
	budget int64  // -memory-budget bytes, 0 when resident
	start  time.Time
	// loadIngests are the set-ups' single-ingest latencies, in ms.
	loadIngests []float64

	acked     []op // acknowledged writes
	unflushed int  // writes sent since the last checkpoint
	attempted int
	failed    int
	metrics   map[string]metric

	mu       sync.Mutex // guards problems, written from the traced pass's workers
	problems []string   // correctness failures: any one fails the run
}

func run(o options) (*result, error) {
	if o.bin == "" {
		return nil, errors.New("-bin is required")
	}
	if _, err := os.Stat(o.bin); err != nil {
		return nil, err
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{o: o, w: w, g: newGen(o.seed), c: newClient(conns), dir: dir, metrics: map[string]metric{}, start: time.Now()}
	b.corpus = b.g.corpus(records)
	b.mix = newMix(b.g, b.corpus, w.deleteShare)
	if w.budgetShare > 0 {
		b.budget = int64(w.budgetShare * 8 * float64(samples(b.corpus)))
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%v records=%d budget=%d\n",
		w.name, o.seed, o.seconds, o.trace, len(b.corpus), b.budget)
	defer func() {
		if b.srv != nil {
			b.srv.kill()
		}
	}()
	if o.trace {
		err = b.runTraced()
	} else {
		err = b.runE2E()
	}
	if err != nil {
		return nil, err
	}
	return b.result(), nil
}

// result prints the run's correctness failures and builds its result line:
// any one failure makes the run incorrect.
func (b *bench) result() *result {
	for _, p := range b.problems {
		fmt.Println("# FAIL:", p)
	}
	return &result{
		Correct:   len(b.problems) == 0,
		Attempted: max(1, b.attempted),
		Failed:    b.failed,
		Metrics:   b.metrics,
	}
}

// put reports a metric under the unit its list gives it.
func (b *bench) put(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b.fail("metric %s is %v", name, v)
		v = 0
	}
	b.metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

func (b *bench) fail(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

func samples(items []item) int {
	n := 0
	for _, it := range items {
		n += len(it.Values)
	}
	return n
}

// serverFlags are the workload's seqserved flags beyond the fixed ones.
func (b *bench) serverFlags() []string {
	if b.budget > 0 {
		return []string{"-memory-budget", fmt.Sprint(b.budget)}
	}
	return nil
}

// setup boots a server on a fresh data directory, loads the corpus,
// checkpoints and waits for /healthz: the set-up a user pays before the
// first query.
func (b *bench) setup(i int) (time.Duration, error) {
	data := filepath.Join(b.dir, fmt.Sprintf("data%d", i))
	t0 := time.Now()
	srv, err := startServer(b.o.bin, data, filepath.Join(b.dir, "seqserved.log"), b.serverFlags())
	if err != nil {
		return 0, err
	}
	b.srv, b.data = srv, data
	if err := srv.waitHealthy(b.c, time.Minute); err != nil {
		return 0, err
	}
	if err := b.load(b.corpus); err != nil {
		return 0, err
	}
	if err := b.checkpoint(); err != nil {
		return 0, err
	}
	if err := srv.waitHealthy(b.c, time.Minute); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// load ingests the corpus over every connection: in batches, except the
// last singleLoads records, which go one /v1/ingest at a time, back to
// back. Their latencies, send to durable 201, are kept: the read-only
// workloads report them as their ingest latencies.
func (b *bench) load(items []item) error {
	split := len(items) - singleLoads
	var ops []op
	for i := 0; i < split; i += batchSize {
		ops = append(ops, batchOp(items[i:min(i+batchSize, split)]))
	}
	for _, it := range items[split:] {
		ops = append(ops, ingestOp(it)) // all due at once: a closed loop
	}
	l := &loader{c: b.c, base: b.srv.base, conns: conns}
	p := l.run(context.Background(), ops)
	if n, err := failures(p); n > 0 {
		return fmt.Errorf("loading the corpus: %d requests failed: %w", n, err)
	}
	for i, oc := range p.out {
		if p.ops[i].kind == opIngest {
			b.loadIngests = append(b.loadIngests, ms(oc.svc))
		}
	}
	return nil
}

func (b *bench) checkpoint() error {
	return postJSON(context.Background(), b.c, b.srv.base+"/v1/snapshot/save", nil, nil)
}

// runPhase runs ops against the serving node and records the outcome;
// with ckpt, the workload's checkpoint policy applies.
//
// The flush policy runs the phase in rounds: a round ends at the op that
// brings the writes since the last checkpoint to ckptEvery, and the
// generator checkpoints before the next round starts, its schedule
// shifted by the pause. Flushes thus happen at the same op counts on
// every run and never overlap timed requests: a checkpoint on one of the
// two connections would stall every request for its whole disk-bound
// length, and that length varied by half between runs on a shared disk.
func (b *bench) runPhase(ops []op, ckpt bool) *phase {
	l := &loader{c: b.c, base: b.srv.base, conns: conns}
	if !ckpt || b.w.ckptEvery == 0 {
		p := l.run(context.Background(), ops)
		b.record(p)
		return p
	}
	all := &phase{}
	for len(ops) > 0 {
		n := 0
		for n < len(ops) && b.unflushed < b.w.ckptEvery {
			if ops[n].kind.write() {
				b.unflushed++
			}
			n++
		}
		round := append([]op(nil), ops[:n]...)
		ops = ops[n:]
		base := round[0].due
		for i := range round {
			round[i].due -= base
		}
		p := l.run(context.Background(), round)
		b.record(p)
		all.ops, all.out = append(all.ops, p.ops...), append(all.out, p.out...)
		all.backlog = max(all.backlog, p.backlog)
		if b.unflushed >= b.w.ckptEvery {
			b.unflushed = 0
			if err := b.checkpoint(); err != nil {
				b.fail("checkpoint: %v", err)
			} else if err := b.checkResidency("after a checkpoint"); err != nil {
				b.fail("residency sample: %v", err)
			}
		}
	}
	return all
}

// runChecked runs a phase like runPhase and fails the run when any of its
// requests failed: a transport error, an unexpected status such as a 5xx
// or 429, an undecodable answer or a stream error frame. Only the rate
// probes, where failing is a verdict on the rate, run unchecked.
func (b *bench) runChecked(what string, ops []op, ckpt bool) *phase {
	p := b.runPhase(ops, ckpt)
	if n, err := failures(p); n > 0 {
		b.fail("%s: %d of %d requests failed, first: %v", what, n, len(p.ops), err)
	}
	return p
}

// record books a phase's requests and acknowledged writes.
func (b *bench) record(p *phase) {
	for i, oc := range p.out {
		b.attempted++
		if oc.err != nil {
			b.failed++
			continue
		}
		if p.ops[i].kind.write() {
			b.acked = append(b.acked, p.ops[i])
		}
	}
}

// runE2E measures the end-to-end metrics.
func (b *bench) runE2E() error {
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		d, err := b.setup(i)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		if i < setupRuns-1 {
			b.srv.kill()
			b.srv = nil
			if err := os.RemoveAll(b.data); err != nil {
				return err
			}
		}
	}
	b.put("setup_s", median(setups))
	fmt.Printf("# setup_s runs: %v\n", setups)
	if !b.w.writes() {
		// The read-only mixes write nothing: their ingest latencies are
		// the set-ups' single ingests. The durable mix measures them
		// under its own read and write load.
		sort.Float64s(b.loadIngests)
		b.putIngestLatencies(b.loadIngests)
	}
	b.stage("setup")

	b.runChecked("warm-up", b.w.phase(b.mix, count(warmup, b.w.rate), b.w.rate), true)

	// The measured phase.
	n := count(time.Duration(b.o.seconds)*time.Second, b.w.rate)
	ops := b.w.phase(b.mix, n, b.w.rate)
	cpu0, err := b.srv.cpu()
	if err != nil {
		return err
	}
	m0, err := b.scrape()
	if err != nil {
		return err
	}
	p := b.runChecked("measured phase", ops, true)
	cpu1, err := b.srv.cpu()
	if err != nil {
		return err
	}
	m1, err := b.scrape()
	if err != nil {
		return err
	}
	if b.budget > 0 && m1.delta(m0, "seqserved_cold_hits_total") <= 0 {
		b.fail("durable-paged: no cold hits in the measured phase, so nothing was paged")
	}
	b.checkLag(p, "measured phase")
	b.putLatencies(p)
	b.put("server_cpu_ms_per_op", ms(cpu1-cpu0)/float64(max(1, len(ops))))
	fmt.Printf("# exemplar repeat share: %.3f of %d drawn\n", float64(b.mix.repeats)/float64(max(1, b.mix.drawn)), b.mix.drawn)

	b.stage("measured")

	// Final checkpoint, footprint, then a write tail the crash must keep.
	if err := b.checkpoint(); err != nil {
		return err
	}
	if err := b.checkResidency("after the final checkpoint"); err != nil {
		return err
	}
	disk, err := dirBytes(b.data)
	if err != nil {
		return err
	}
	live := b.liveSamples()
	b.put("disk_bytes_per_user_byte", float64(disk)/float64(8*live))
	rss, err := b.srv.rssPeakMB()
	if err != nil {
		return err
	}
	b.put("server_rss_peak_mb", rss)
	b.stage("checkpoint")

	// The recovery time is reported by -trace 1 (slo.recovery_s); here the
	// crashes feed the durability check.
	if _, err := b.crashCycle(); err != nil {
		return err
	}
	b.stage("crashes")
	if err := b.checkDurable(); err != nil {
		return err
	}
	b.stage("durability")
	defer b.stage("oracle")
	return b.checkOracle()
}

// stage prints how long the run has taken so far.
func (b *bench) stage(name string) {
	fmt.Printf("# t=%.1fs after %s\n", time.Since(b.start).Seconds(), name)
}

// putLatencies reports the measured phase's route latencies.
func (b *bench) putLatencies(p *phase) {
	q := latencies(p, opQuery, false)
	b.putTail("query", q)
	b.put("query_p50_ms", percentile(q, 50))
	first := latencies(p, opStream, true)
	done := latencies(p, opStream, false)
	b.putTail("stream", done)
	b.put("stream_first_p50_ms", b.finite(percentile(first, 50)))
	b.put("stream_done_p99_ms", b.finite(percentile(done, tailRank(len(done), 99))))
	if b.w.writes() {
		b.putIngest(p)
	}
}

func (b *bench) putIngest(p *phase) { b.putIngestLatencies(latencies(p, opIngest, false)) }

func (b *bench) putIngestLatencies(in []float64) {
	b.putTail("ingest", in)
	b.put("ingest_p50_ms", b.finite(percentile(in, 50)))
	b.put("ingest_p99_ms", b.finite(percentile(in, tailRank(len(in), 99))))
}

// putTail prints a route's sample count, median, p90 and which percentile
// its "p99" is: the highest with ten samples beyond it, at most p99.
func (b *bench) putTail(route string, lat []float64) {
	fmt.Printf("# %s: n=%d p50=%.3fms p90=%.3fms tail=p%.2f %.3fms\n", route, len(lat),
		percentile(lat, 50), percentile(lat, 90), tailRank(len(lat), 99), percentile(lat, tailRank(len(lat), 99)))
}

// finite replaces a percentile that landed on a failed request (+Inf)
// by the run length: a failure misses every limit. The failure itself
// already fails the run (runChecked).
func (b *bench) finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return float64(b.o.seconds) * 1000
	}
	return v
}

// checkLag marks the run invalid when the generator dispatched late.
func (b *bench) checkLag(p *phase, what string) float64 {
	lags := make([]float64, len(p.out))
	for i, oc := range p.out {
		lags[i] = ms(oc.lag)
	}
	sort.Float64s(lags)
	lag := percentile(lags, tailRank(len(lags), 99))
	fmt.Printf("# gen.lag_p99_ms %s: %.3f\n", what, lag)
	if lag > lagLimitMS {
		b.fail("%s: generator dispatch ran %.1f ms late at p99 (limit %.0f ms): the run measured the generator", what, lag, lagLimitMS)
	}
	return lag
}

// maxRPS finds the highest ladder rate whose phase meets the workload's
// latency limit on every route with no failures and no growing backlog.
// Bisection over the rungs runs a fixed number of probes; the ladder's
// floor is reported when no probed rate passes.
func (b *bench) maxRPS() float64 {
	lo, hi := 0, b.w.probe.rungs-1
	for step := 0; step < probeDepth && lo < hi; step++ {
		mid := (lo + hi + 1) / 2
		rate := b.w.probe.rate(mid)
		ops := b.w.phase(b.mix, count(probeTime, rate), rate)
		p := b.runPhase(ops, true)
		ok, why := b.meetsSLO(p)
		fmt.Printf("# probe %.1f req/s: pass=%v %s\n", rate, ok, why)
		if ok {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return b.w.probe.rate(lo)
}

func (b *bench) meetsSLO(p *phase) (bool, string) {
	if nf, err := failures(p); nf > 0 {
		return false, fmt.Sprintf("%d failed: %v", nf, err)
	}
	if p.backlog > max(2*conns, len(p.ops)/50) {
		return false, fmt.Sprintf("backlog %d", p.backlog)
	}
	for _, k := range []opKind{opQuery, opStream, opIngest} {
		lat := latencies(p, k, false)
		if len(lat) == 0 {
			continue
		}
		if v := percentile(lat, tailRank(len(lat), 99)); v > b.w.limitMS {
			return false, fmt.Sprintf("%s tail %.1f ms", k, v)
		}
	}
	return true, ""
}

// liveSamples counts the samples the database should hold: the corpus
// plus acknowledged ingests minus acknowledged deletes.
func (b *bench) liveSamples() int {
	live := b.liveSet()
	n := 0
	for _, v := range live {
		n += len(v)
	}
	return n
}

// liveSet maps every id the database should hold to its values.
func (b *bench) liveSet() map[string][]float64 {
	live := make(map[string][]float64, len(b.corpus)+len(b.acked))
	for _, it := range b.corpus {
		live[it.ID] = it.Values
	}
	for _, o := range b.acked {
		for _, it := range o.items {
			live[it.ID] = it.Values
		}
		if o.kind == opDelete {
			delete(live, o.del)
		}
	}
	return live
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
