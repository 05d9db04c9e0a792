package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailRankLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, {5000, 99}, {500, 98}, {200, 95}, {100, 90}, {11, 100.0 / 11}, {10, 50}, {0, 50},
	} {
		if got := tailRank(c.n, 99); got != c.want {
			t.Errorf("tailRank(%d, 99) = %v, want %v", c.n, got, c.want)
		}
	}
	// Ten samples lie beyond the chosen rank.
	sorted := make([]float64, 500)
	for i := range sorted {
		sorted[i] = float64(i)
	}
	v := percentile(sorted, tailRank(len(sorted), 99))
	beyond := 0
	for _, x := range sorted {
		if x > v {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond the tail percentile, want 10", beyond)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// A stalled server must delay every request queued behind the stall, and
// the latency of each must count from its due time, not from when it was
// finally sent.
func TestLatencyCountsFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"ids":[]}`))
	}))
	defer srv.Close()
	ops := make([]op, 10)
	for i := range ops {
		ops[i] = queryOp(opQuery, "MATCH PEAKS 1")
	}
	schedule(ops, 100) // due every 10 ms, all within the stall
	l := &loader{c: newClient(1), base: srv.URL, conns: 1}
	p := l.run(t.Context(), ops)
	for i, oc := range p.out {
		if oc.err != nil {
			t.Fatalf("request %d: %v", i, oc.err)
		}
		// Request i was due at 10·i ms and could not start before the
		// stall ended at ~300 ms.
		floor := stall - ops[i].due
		if oc.lat < floor {
			t.Errorf("request %d: latency %v, want at least %v (stall minus its due offset)", i, oc.lat, floor)
		}
		if oc.lag > 50*time.Millisecond {
			t.Errorf("request %d: dispatched %v late; the generator must not wait for the server", i, oc.lag)
		}
	}
	if p.backlog == 0 {
		t.Error("no backlog reported while the only connection was stalled")
	}
}

// One refused request anywhere in a checked phase makes the whole run
// incorrect, even when every other answer is right and the latency
// percentiles do not move.
func TestFailedRequestFailsTheRun(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 3 {
			http.Error(w, "injected", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"ids":["a"]}`))
	}))
	defer srv.Close()
	b := &bench{w: &workload{}, c: newClient(1), srv: &serverProc{base: srv.URL}, metrics: map[string]metric{}}
	ops := make([]op, 20)
	for i := range ops {
		ops[i] = queryOp(opQuery, "MATCH PEAKS 1")
	}
	schedule(ops, 1000)
	b.runChecked("measured phase", ops, true)
	res := b.result()
	if res.Correct {
		t.Error("a run with a 500 in its measured phase reported correct")
	}
	if res.Attempted != 20 || res.Failed != 1 {
		t.Errorf("attempted %d, failed %d; want 20 and 1", res.Attempted, res.Failed)
	}
}

// The stream reader keeps every accepted id and skips header,
// refinement and final-reject frames; the first answer is the first
// frame carrying an id.
func TestStreamReaderKeepsAcceptedIDs(t *testing.T) {
	frames := strings.Join([]string{
		`{"canonical":"MATCH ..."}`,
		`{"refine":{"id":"r1","tier":"sketch","lo":0}}`,
		`{"refine":{"id":"r1","tier":"exact","lo":5,"hi":5,"final":true}}`,
		`{"refine":{"id":"r2","tier":"exact","lo":1,"hi":1,"final":true},"match":{"id":"r2","exact":true}}`,
		`{"hit":{"id":"h1"}}`,
		`{"id":"p1"}`,
		`{"done":true,"stats":{"plan":"progressive"}}`,
	}, "\n")
	var oc outcome
	if err := readStream(strings.NewReader(frames), time.Now(), &oc, true); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(oc.ids, ","); got != "r2,h1,p1" {
		t.Errorf("accepted ids %q, want r2,h1,p1", got)
	}
	if oc.first == 0 || oc.lat < oc.first || oc.stats == nil {
		t.Errorf("first %v, done %v, stats %v: want a first answer no later than the trailer, and the trailer's stats", oc.first, oc.lat, oc.stats)
	}
	for _, bad := range []string{`{"error":"boom"}`, `{"id":"p1"}`} {
		var oc outcome
		if err := readStream(strings.NewReader(bad), time.Now(), &oc, true); err == nil {
			t.Errorf("stream %s read without an error", bad)
		}
	}
}

func TestExemplarOf(t *testing.T) {
	for stmt, want := range map[string]string{
		"MATCH DISTANCE LIKE c0001f METRIC l2 EPS 3 WITHIN ERROR 1": "c0001f",
		"MATCH SHAPE LIKE c0002e PEAKS 1 HEIGHT 0.1 SPACING 0.3":    "c0002e",
		"MATCH PEAKS 2 TOLERANCE 1":                                 "",
	} {
		if got := exemplarOf(stmt); got != want {
			t.Errorf("exemplarOf(%q) = %q, want %q", stmt, got, want)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 10 * ms},
		{name: "a", parent: 0, start: 1 * ms, end: 3 * ms},
		{name: "b", parent: 0, start: 2 * ms, end: 5 * ms},   // overlaps a
		{name: "c", parent: 0, start: 8 * ms, end: 12 * ms},  // runs past the parent
		{name: "a.1", parent: 1, start: 1 * ms, end: 2 * ms}, // grandchild: a's, not root's
		{name: "open", parent: 0, start: 6 * ms, end: -1},    // never closed: ignored
	}
	self := selfTimes(spans)
	for i, want := range []time.Duration{4 * ms, 1 * ms, 3 * ms, 4 * ms, 1 * ms} {
		if self[i] != want {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, self[i], want)
		}
	}
}

func TestTracerSpansNest(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 7, -1)
	tr.timed("child", 7, root, func() { time.Sleep(2 * time.Millisecond) })
	tr.end(root)
	self := selfTimes(tr.spans)
	if d := tr.spans[root].end - tr.spans[root].start; self[root] > d-2*time.Millisecond {
		t.Errorf("root self %v of %v does not exclude the 2ms child", self[root], d)
	}
	if tr.spans[1].req != 7 || tr.spans[1].parent != root {
		t.Errorf("child span %+v lost its request or parent", tr.spans[1])
	}
}

func TestMetricsDeltas(t *testing.T) {
	before, err := parseMetrics(strings.NewReader(`# HELP seqserved_cache_hits_total Result cache hits.
# TYPE seqserved_cache_hits_total counter
seqserved_cache_hits_total 10
seqserved_request_seconds_sum{endpoint="POST /v1/query"} 0.5
seqserved_requests_total{endpoint="POST /v1/query",code="200"} 7
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics(strings.NewReader(`seqserved_cache_hits_total 25
seqserved_request_seconds_sum{endpoint="POST /v1/query"} 1.75
seqserved_requests_total{endpoint="POST /v1/query",code="200"} 12
seqserved_cold_hits_total 3
`))
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"seqserved_cache_hits_total":                                     15,
		`seqserved_request_seconds_sum{endpoint="POST /v1/query"}`:       1.25,
		`seqserved_requests_total{endpoint="POST /v1/query",code="200"}`: 5,
		"seqserved_cold_hits_total":                                      3, // new series: from 0
		"seqserved_absent_total":                                         0,
	} {
		if got := after.delta(before, series); got != want {
			t.Errorf("delta(%s) = %v, want %v", series, got, want)
		}
	}
	if _, err := parseMetrics(strings.NewReader("novalue\n")); err == nil {
		t.Error("a line without a value parsed")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	draw := func() []op {
		g := newGen(42)
		m := newMix(g, g.corpus(300), 0.2)
		w, _ := workloadByName("durable-paged")
		return w.phase(m, 200, 100)
	}
	a, b := draw(), draw()
	for i := range a {
		if string(a[i].body) != string(b[i].body) || a[i].due != b[i].due || a[i].del != b[i].del {
			t.Fatalf("op %d differs between two draws from one seed", i)
		}
	}
}

// BENCHMARK.json and the program must name the same metrics and
// workloads.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var f struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: file lists %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: file %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("file lists %d workloads, program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: file %s, program %s", i, w.Name, workloads[i].name)
		}
	}
}

func TestSpreadDeckKeepsProportionsEvenlySpaced(t *testing.T) {
	d := &deck{weights: []int{3, 1}, spread: true}
	var got []int
	for i := 0; i < 8; i++ {
		got = append(got, d.deal(nil))
	}
	// Index 1 comes once in every four, never twice in a row.
	ones := 0
	for i, c := range got {
		if c == 1 {
			ones++
			if i > 0 && got[i-1] == 1 {
				t.Fatalf("spread deck dealt index 1 twice in a row: %v", got)
			}
		}
	}
	if ones != 2 {
		t.Fatalf("dealt index 1 %d times in two rounds of weights 3:1, want 2: %v", ones, got)
	}
}
