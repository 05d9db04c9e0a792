package main

import (
	"fmt"
	"strings"
	"time"

	"seqrep/internal/core"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a -trace 0 run reports; BENCHMARK.json lists
// the same names with their bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"stream_first_p50_ms", "ms"},
	{"stream_done_p99_ms", "ms"},
	{"ingest_p50_ms", "ms"},
	{"ingest_p99_ms", "ms"},
	{"server_cpu_ms_per_op", "ms"},
	{"server_rss_peak_mb", "MB"},
	{"disk_bytes_per_user_byte", "ratio"},
}

// perLayer are the metrics a -trace 1 run reports, named
// <module>.<metric> after the package that does the work.
var perLayer = []metricDef{
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_invalidations", "count"},
	{"server.admission_rejected", "count"},
	{"server.handler_self_us", "us"},
	{"server.encode_us", "us"},
	{"net.roundtrip_us", "us"},
	{"querylang.parse_us", "us"},
	{"querylang.self_us", "us"},
	{"querylang.exemplar_load_us", "us"},
	{"core.query_self_us", "us"},
	{"core.examined_per_query", "count"},
	{"core.candidates_per_query", "count"},
	{"core.pruned_ratio", "ratio"},
	{"core.matches_per_candidate", "ratio"},
	{"core.plan_index_share", "ratio"},
	{"core.plan_scan_share", "ratio"},
	{"core.plan_progressive_share", "ratio"},
	{"core.scan_us", "us"},
	{"core.sketched_per_query", "count"},
	{"core.band_accepted_ratio", "ratio"},
	{"core.ingest_commit_us", "us"},
	{"core.checkpoint_ms", "ms"},
	{"dft.exemplar_features_us", "us"},
	{"dft.features_calls_per_op", "count"},
	{"dft.record_features_us", "us"},
	{"dist.verify_ns_per_candidate", "ns"},
	{"multires.sketch_build_us", "us"},
	{"multires.band_ns_per_record", "ns"},
	{"breaking.break_us", "us"},
	{"rep.build_us", "us"},
	{"feature.extract_us", "us"},
	{"rep.reconstruct_us", "us"},
	{"rep.segments_per_record", "count"},
	{"pattern.match_us", "us"},
	{"index.interval_us", "us"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"wal.records_per_checkpoint", "count"},
	{"segment.flush_bytes_per_checkpoint", "bytes"},
	{"segment.compactions", "count"},
	{"segment.tombstone_ratio_end", "ratio"},
	{"segment.cache_hit_ratio", "ratio"},
	{"resident.cold_hits_per_query", "count"},
	{"resident.evictions_per_op", "count"},
	{"resident.page_in_us", "us"},
	{"resident.pinned_peak", "count"},
	{"resident.bytes_peak_over_budget", "bytes"},
	{"gen.lag_p99_ms", "ms"},
	{"gen.exemplar_repeat_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"slo.max_rps", "1/s"},
	{"slo.query_p99_ms", "ms"},
	{"slo.recovery_s", "s"},
}

func unitOf(name string) string {
	for _, m := range append(endToEnd, perLayer...) {
		if m.name == name {
			return m.unit
		}
	}
	panic("unlisted metric " + name) // a typo in this file
}

// layer reports sum/n for a per-layer metric, or 0 marked n/a with the
// reason when nothing was measured.
func (b *bench) layer(name string, sum float64, n int, na string) {
	if n == 0 {
		fmt.Printf("# n/a %s: %s\n", name, na)
		b.put(name, 0)
		return
	}
	b.put(name, sum/float64(n))
}

// estimate notes that a metric subtracts a replay from a measured span.
func estimate(name, how string) { fmt.Printf("# estimate %s: %s\n", name, how) }

// replayed notes that a metric times the traced pass's second run of a
// statement, after the handler's run warmed what it reads.
func replayed(name string) {
	fmt.Printf("# replay %s: timed on the statement's second run, after the handler's\n", name)
}

// putHTTPLayers reports the metrics counted on the untraced HTTP pass:
// /metrics deltas, response stats and the generator's own figures.
func (b *bench) putHTTPLayers(p *phase, m0, m1 promSample) {
	d := func(series string) float64 { return m1.delta(m0, series) }
	hits, misses := d("seqserved_cache_hits_total"), d("seqserved_cache_misses_total")
	b.layer("server.cache_hit_ratio", hits, int(hits+misses), "no request reached the result cache")
	b.put("server.cache_invalidations", d("seqserved_cache_invalidations_total"))
	b.put("server.admission_rejected", d("seqserved_admission_rejected_total"))

	var svc float64
	queries, reads := 0, 0
	for i, oc := range p.out {
		switch k := p.ops[i].kind; {
		case k == opQuery && oc.err == nil:
			svc += float64(oc.svc) / float64(time.Microsecond)
			queries++
			reads++
		case k == opStream:
			reads++
		}
	}
	const ep = `{endpoint="POST /v1/query"}`
	if n := d("seqserved_request_seconds_count" + ep); n > 0 && queries > 0 {
		b.put("net.roundtrip_us", svc/float64(queries)-d("seqserved_request_seconds_sum"+ep)*1e6/n)
	} else {
		b.layer("net.roundtrip_us", 0, 0, "no /v1/query requests")
	}

	sh, sm := d("seqserved_segment_cache_hits_total"), d("seqserved_segment_cache_misses_total")
	b.layer("segment.cache_hit_ratio", sh, int(sh+sm), "no segment reads: every payload stayed resident")
	b.put("segment.compactions", d("seqserved_segment_compactions_total"))
	b.put("resident.cold_hits_per_query", d("seqserved_cold_hits_total")/float64(max(1, reads)))
	b.put("resident.evictions_per_op", d("seqserved_evictions_total")/float64(len(p.ops)))
	if b.budget > 0 && d("seqserved_cold_hits_total") <= 0 {
		b.fail("durable-paged: no cold hits, so nothing was paged")
	}

	// Useful work over attempts, from the stats of answers the engine
	// computed (cached answers repeat an earlier computation's stats).
	var st struct{ examined, candidates, pruned, matches, sketched, accepted float64 }
	plans := map[string]int{}
	planned, prog := 0, 0
	for _, oc := range p.out {
		if oc.err != nil || oc.stats == nil || oc.cached {
			continue
		}
		s := oc.stats
		plans[s.Plan]++
		planned++
		st.examined += float64(s.Examined)
		st.candidates += float64(s.Candidates)
		st.pruned += float64(s.Pruned)
		st.matches += float64(s.Matches)
		if s.Plan == core.PlanProgressive {
			prog++
			st.sketched += float64(s.Sketched)
			st.accepted += float64(s.BandAccepted)
		}
	}
	none := "no statement in the mix reports planner stats"
	b.layer("core.examined_per_query", st.examined, planned, none)
	b.layer("core.candidates_per_query", st.candidates, planned, none)
	b.layer("core.pruned_ratio", st.pruned, int(st.examined), "nothing examined")
	b.layer("core.matches_per_candidate", st.matches, int(st.candidates), "no candidates")
	for _, plan := range []string{core.PlanIndex, core.PlanScan, core.PlanProgressive} {
		b.layer("core.plan_"+plan+"_share", float64(plans[plan]), planned, none)
	}
	b.layer("core.sketched_per_query", st.sketched, prog, "no progressive statements in the mix")
	b.layer("core.band_accepted_ratio", st.accepted, int(st.sketched), "no progressive statements in the mix")

	q := latencies(p, opQuery, false)
	b.put("slo.query_p99_ms", b.finite(percentile(q, tailRank(len(q), 99))))
	b.put("gen.lag_p99_ms", b.checkLag(p, "measured phase"))
	b.put("gen.exemplar_repeat_share", float64(b.mix.repeats)/float64(max(1, b.mix.drawn)))
}

// spanStats indexes a finished trace.
type spanStats struct {
	spans  []span
	self   []time.Duration
	byName map[string][]int
	byReq  map[int][]int
}

func newSpanStats(tr *tracer) *spanStats {
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	s := &spanStats{spans: spans, self: selfTimes(spans), byName: map[string][]int{}, byReq: map[int][]int{}}
	for i, sp := range spans {
		if sp.end < 0 {
			continue
		}
		s.byName[sp.name] = append(s.byName[sp.name], i)
		s.byReq[sp.req] = append(s.byReq[sp.req], i)
	}
	return s
}

func (s *spanStats) dur(i int) time.Duration { return s.spans[i].end - s.spans[i].start }

// total sums the durations of req's spans whose name passes keep.
func (s *spanStats) total(req int, keep func(name string) bool) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, i := range s.byReq[req] {
		if keep(s.spans[i].name) {
			d += s.dur(i)
			n++
		}
	}
	return d, n
}

// mean returns the summed duration of every span named one of names, in
// unit, and how many there were.
func (s *spanStats) mean(unit time.Duration, names ...string) (float64, int) {
	var sum time.Duration
	n := 0
	for _, name := range names {
		for _, i := range s.byName[name] {
			sum += s.dur(i)
			n++
		}
	}
	return float64(sum) / float64(unit), n
}

func named(names ...string) func(string) bool {
	return func(n string) bool {
		for _, x := range names {
			if n == x {
				return true
			}
		}
		return false
	}
}

func isCoreQuery(n string) bool {
	return strings.HasPrefix(n, "core.") && strings.Contains(n, "Query") && n != "core.IntervalQuery"
}

var buildSteps = named("breaking.break", "rep.build", "feature.extract", "rep.reconstruct", "dft.record_features", "multires.sketch_build")

// report turns the traced pass into the per-layer times.
func (t *traced) report(tr *tracer, untraced float64) error {
	b := t.b
	s := newSpanStats(tr)
	us, ns := time.Microsecond, time.Nanosecond

	// Per-request arithmetic over the request's spans.
	var handlerSelf, coreSelf, commit float64
	var nHandler, nCore, nCommit int
	var traced []float64
	for req, ri := range t.reqs {
		if ri.kind == opQuery {
			traced = append(traced, ms(ri.latency))
		}
		if h, ok := s.total(req, named("server.handler")); ok == 1 && ri.kind == opQuery && !ri.cached {
			parts, _ := s.total(req, named("querylang.parse", "querylang.run", "server.encode"))
			handlerSelf += float64(h-parts) / float64(us)
			nHandler++
		}
		if q, n := s.total(req, isCoreQuery); n > 0 {
			f, _ := s.total(req, named("dft.exemplar_features"))
			coreSelf += float64(q-f) / float64(us)
			nCore++
		}
	}
	for req := range s.byReq {
		if in, n := s.total(req, named("core.Ingest")); n == 1 {
			steps, _ := s.total(req, buildSteps)
			commit += float64(in-steps) / float64(us)
			nCommit++
		}
	}
	b.layer("server.handler_self_us", handlerSelf, nHandler, "no uncached /v1/query requests")
	estimate("server.handler_self_us", "handler span minus the replayed parse, run and encode of the same statement")
	b.layer(span1("server.encode_us", s, us, "server.encode"))
	b.layer(span1("querylang.parse_us", s, us, "querylang.parse"))
	var qlSelf float64
	for _, i := range s.byName["querylang.run"] {
		qlSelf += float64(s.self[i]) / float64(us)
	}
	b.layer("querylang.self_us", qlSelf, len(s.byName["querylang.run"]), "no statements")
	replayed("querylang.self_us")
	b.layer(span1("querylang.exemplar_load_us", s, us, "querylang.exemplar_load"))
	b.layer("core.query_self_us", coreSelf, nCore, "no similarity statements in the mix")
	replayed("core.query_self_us")
	estimate("core.query_self_us", "core query span minus one replayed exemplar DFT per l2, zl2 or value call; further DFTs the engine runs for a call stay in")

	var scan float64
	nScan := 0
	for _, ri := range t.reqs {
		for _, c := range ri.calls {
			if c.stats.Plan == core.PlanScan {
				scan += float64(s.dur(c.span)) / float64(us)
				nScan++
			}
		}
	}
	b.layer("core.scan_us", scan, nScan, "no statement took the scan plan")
	replayed("core.scan_us")
	b.layer("core.ingest_commit_us", commit, nCommit, "no single ingests")
	estimate("core.ingest_commit_us", "DB.Ingest span minus the replayed build steps of the same record")
	var run, setup []ckptStat
	for _, c := range t.ckpts {
		if c.setup {
			setup = append(setup, c)
		} else {
			run = append(run, c)
		}
	}
	ck := run
	if len(ck) == 0 {
		fmt.Println("# core.checkpoint_ms, wal.* and segment.flush_bytes_per_checkpoint: the mix writes nothing; set-up checkpoint of the corpus")
		ck = setup
	}
	var ckMS, walBytes, userBytes, walRecs, flush float64
	nFlush := 0
	for _, c := range ck {
		ckMS += ms(c.dur)
		walBytes += float64(c.walBytes)
		userBytes += float64(c.user)
		walRecs += float64(c.walRecords)
		if !c.compacted {
			flush += float64(c.flushBytes)
			nFlush++
		}
	}
	b.layer("core.checkpoint_ms", ckMS, len(ck), "no checkpoints")
	b.layer("wal.bytes_per_user_byte", walBytes, int(userBytes), "no writes")
	b.layer("wal.records_per_checkpoint", walRecs, len(ck), "no checkpoints")
	b.layer("segment.flush_bytes_per_checkpoint", flush, nFlush, "every checkpoint compacted")

	b.layer(span1("dft.exemplar_features_us", s, us, "dft.exemplar_features"))
	b.layer("dft.features_calls_per_op", 0, 0, "seqserved exposes no count of its dft.Features calls, and a count kept outside the engine would model its call sites rather than measure them")
	b.layer(span1("dft.record_features_us", s, us, "dft.record_features"))
	b.layer(span1("dist.verify_ns_per_candidate", s, ns, "dist.verify"))
	b.layer(span1("multires.sketch_build_us", s, us, "multires.sketch_build"))
	band, _ := s.mean(ns, "multires.band")
	b.layer("multires.band_ns_per_record", band, int(t.counts["multires.band_records"]), "no progressive statements in the mix")
	b.layer(span1("breaking.break_us", s, us, "breaking.break"))
	b.layer(span1("rep.build_us", s, us, "rep.build"))
	b.layer(span1("feature.extract_us", s, us, "feature.extract"))
	b.layer(span1("rep.reconstruct_us", s, us, "rep.reconstruct"))
	st := t.db.Stats()
	b.layer("rep.segments_per_record", float64(st.Segments), st.Sequences, "empty database")
	b.layer(span1("pattern.match_us", s, us, "core.MatchPattern", "core.SearchPattern"))
	b.layer(span1("index.interval_us", s, us, "core.IntervalQuery"))

	if seg, ok := t.db.SegmentStats(); ok {
		b.layer("segment.tombstone_ratio_end", float64(seg.Tombstones), seg.Entries, "no segment entries")
	}
	if b.budget > 0 {
		b.layer("resident.page_in_us", t.counts["resident.page_in_ns"]/1e3, int(t.counts["resident.page_ins"]), "no sampled record was cold")
		b.put("resident.pinned_peak", float64(t.pinnedPeak))
		b.put("resident.bytes_peak_over_budget", float64(max(0, t.overBudget)))
	} else {
		for _, name := range []string{"resident.page_in_us", "resident.pinned_peak", "resident.bytes_peak_over_budget"} {
			b.layer(name, 0, 0, "no memory budget: every payload is resident")
		}
	}
	if len(traced) > 0 && untraced > 0 {
		b.put("trace.overhead_ratio", median(traced)/untraced)
		estimate("trace.overhead_ratio", fmt.Sprintf("traced in-process /v1/query p50, from due time to the handler's answer, over the untraced HTTP p50 %.3f ms; "+
			"it includes the exemplar load before the handler and waits behind earlier requests' replays, and leaves out HTTP transport", untraced))
	} else {
		b.layer("trace.overhead_ratio", 0, 0, "no /v1/query requests")
	}
	for _, m := range perLayer {
		if _, ok := b.metrics[m.name]; !ok {
			return fmt.Errorf("per-layer metric %s not reported", m.name)
		}
	}
	return nil
}

// span1 is the mean duration of the named spans, in unit, as layer
// arguments.
func span1(metric string, s *spanStats, unit time.Duration, names ...string) (string, float64, int, string) {
	sum, n := s.mean(unit, names...)
	return metric, sum, n, "no " + strings.Join(names, " or ") + " calls in the mix"
}
