package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"seqrep/api"
	"seqrep/internal/core"
	"seqrep/internal/querylang"
	"seqrep/internal/seq"
)

// promSample is one parsed /metrics scrape: series (name plus labels, as
// printed) to value.
type promSample map[string]float64

// parseMetrics parses the Prometheus text format seqserved writes.
func parseMetrics(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns how much a series grew since before; a series absent
// from a scrape reads 0.
func (s promSample) delta(before promSample, series string) float64 {
	return s[series] - before[series]
}

func (b *bench) scrape() (promSample, error) {
	resp, err := b.c.Get(b.srv.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseMetrics(resp.Body)
}

// checkResidency reads /healthz, called with no request in flight:
// nothing may be pinned, and resident bytes must sit within the budget.
// Pinned (dirty, not yet checkpointed) payloads may legitimately exceed
// the budget while writes are in flight; the traced run reports the peak
// excess and pin count.
func (b *bench) checkResidency(when string) error {
	if b.budget <= 0 {
		return nil
	}
	var h api.HealthResponse
	if err := getJSON(b.c, b.srv.base+"/healthz", &h); err != nil {
		return err
	}
	switch {
	case h.ResidentPinned != 0:
		b.fail("%s: %d payloads still pinned with no write in flight", when, h.ResidentPinned)
	case h.ResidentBytes > b.budget:
		b.fail("%s: %d resident bytes exceed the %d byte budget with nothing pinned", when, h.ResidentBytes, b.budget)
	}
	return nil
}

// crashCycle acknowledges a fixed number of writes after the last
// checkpoint, so that every boot has a log tail to replay, then SIGKILLs
// and reboots the server crashes times. It returns the median time from
// kill to healthy, in seconds.
func (b *bench) crashCycle() (float64, error) {
	tail := make([]op, crashTail)
	for i := range tail {
		tail[i] = ingestOp(b.g.feverRecord("z"))
	}
	b.runChecked("write tail before the crash", tail, false)
	var recs []float64
	for i := 0; i < crashes; i++ {
		rec, err := b.crash()
		if err != nil {
			return 0, err
		}
		recs = append(recs, rec.Seconds())
	}
	fmt.Printf("# recovery_s runs: %v\n", recs)
	return median(recs), nil
}

// crash SIGKILLs the server and boots a new one on the same data
// directory, returning the time from the kill to a healthy /healthz. The
// kill leaves the operating system's page cache intact: this checks a
// process crash, not a power loss.
func (b *bench) crash() (time.Duration, error) {
	t0 := time.Now()
	b.srv.kill()
	b.srv = nil
	b.c.CloseIdleConnections()
	srv, err := startServer(b.o.bin, b.data, b.dir+"/seqserved.log", b.serverFlags())
	if err != nil {
		return 0, err
	}
	b.srv = srv
	if err := srv.waitHealthy(b.c, time.Minute); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// checkDurable verifies the rebooted server holds exactly the
// acknowledged state: every acknowledged ingest readable with its sample
// count, every acknowledged delete absent, and no other id.
func (b *bench) checkDurable() error {
	live := b.liveSet()
	ids, err := b.serverIDs()
	if err != nil {
		return err
	}
	lost, extra := 0, 0
	for _, id := range ids {
		if _, ok := live[id]; !ok {
			extra++
		}
	}
	for id := range live {
		if !containsSorted(ids, id) {
			lost++
		}
	}
	for _, o := range b.acked {
		for _, it := range o.items {
			var r api.RecordResponse
			b.attempted++
			if err := getJSON(b.c, b.srv.base+"/v1/records/"+it.ID, &r); err != nil || r.Samples != len(it.Values) {
				b.failed++
				lost++
			}
		}
		if o.kind == opDelete {
			b.attempted++
			resp, err := b.c.Get(b.srv.base + "/v1/records/" + o.del)
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				b.failed++
				extra++
			}
		}
	}
	fmt.Printf("# durability: %d live ids expected, %d served, %d acknowledged writes lost, %d unexpected\n", len(live), len(ids), lost, extra)
	if lost > 0 || extra > 0 {
		b.fail("after SIGKILL and reboot: %d acknowledged writes lost, %d ids present that should not be", lost, extra)
	}
	return nil
}

// serverIDs lists every id the server holds, sorted: every symbol string
// matches the pattern ".*".
func (b *bench) serverIDs() ([]string, error) {
	var qr api.QueryResponse
	body, _ := json.Marshal(api.QueryRequest{Query: "MATCH PATTERN '.*'"})
	if err := postJSON(context.Background(), b.c, b.srv.base+"/v1/query", body, &qr); err != nil {
		return nil, err
	}
	sort.Strings(qr.IDs)
	return qr.IDs, nil
}

func containsSorted(xs []string, x string) bool {
	i := sort.SearchStrings(xs, x)
	return i < len(xs) && xs[i] == x
}

// oracleCheck is one statement of the answer check. A progressive
// statement's accepted ids must include the exact answer and, under
// WITHIN ERROR, lie inside the answer at the widened radius EPS + e.
type oracleCheck struct {
	stmt   string
	stream bool
	exact  string // the exact statement whose ids the answer must hold
	wide   string // progressive WITHIN ERROR: the ids may not leave this answer
}

// oracleChecks draws the fixed seeded sample of statements: indexed,
// progressive and feature queries over exemplars no request deletes.
func (b *bench) oracleStatements() []oracleCheck {
	m := &mix{g: newGen(b.o.seed + 7919), exemplars: b.mix.exemplars, vals: b.mix.vals}
	m.reset()
	var out []oracleCheck
	for i := 0; i < oracleChecks; i++ {
		switch i % 4 {
		case 0, 1:
			s := m.indexed(m.uniformExemplar("similarity query"), "similarity")
			out = append(out, oracleCheck{stmt: s, exact: s})
		case 2:
			p := m.progressiveForm(m.uniformExemplar("similarity stream"), i/4%3)
			out = append(out, oracleCheck{stmt: p.stmt, stream: true, exact: p.exact, wide: p.wide})
		default:
			s := m.feature()
			out = append(out, oracleCheck{stmt: s, exact: s})
		}
	}
	return out
}

// buildOracle ingests the acknowledged state into an in-memory engine
// with the server's configuration, except that the feature index is off:
// every similarity statement then takes the scan plan.
func (b *bench) buildOracle() (*core.DB, error) {
	db, err := core.New(core.Config{IndexCoeffs: -1})
	if err != nil {
		return nil, err
	}
	live := b.liveSet()
	items := make([]core.BatchItem, 0, len(live))
	for id, v := range live {
		items = append(items, core.BatchItem{ID: id, Seq: seq.New(v)})
	}
	if _, err := db.IngestBatch(items); err != nil {
		return nil, fmt.Errorf("building the oracle: %w", err)
	}
	return db, nil
}

// checkOracle sends the statement sample and compares every answer.
func (b *bench) checkOracle() error {
	odb, err := b.buildOracle()
	if err != nil {
		return err
	}
	defer odb.Close()
	ctx := context.Background()
	bad := 0
	for _, ch := range b.oracleStatements() {
		b.attempted++
		got, err := b.serverAnswer(ctx, ch)
		if err != nil {
			b.failed++
			b.fail("oracle statement %q: %v", ch.stmt, err)
			continue
		}
		want, err := oracleIDs(odb, ch.exact)
		if err != nil {
			return fmt.Errorf("oracle %q: %w", ch.exact, err)
		}
		var why string
		progressive := ch.stmt != ch.exact
		switch {
		case !progressive && !equalSets(got, want):
			why = fmt.Sprintf("ids differ: server %d, oracle %d", len(got), len(want))
		case progressive && !subset(want, got):
			why = fmt.Sprintf("server dropped ids the exact answer holds (%d vs %d)", len(got), len(want))
		case ch.wide != "":
			wide, err := oracleIDs(odb, ch.wide)
			if err != nil {
				return fmt.Errorf("oracle %q: %w", ch.wide, err)
			}
			if !subset(got, wide) {
				why = "server accepted ids beyond EPS + WITHIN ERROR"
			}
		}
		if why != "" {
			bad++
			b.failed++
			b.fail("oracle mismatch on %q: %s", ch.stmt, why)
		}
	}
	fmt.Printf("# oracle: %d statements, %d mismatches\n", oracleChecks, bad)
	return nil
}

func oracleIDs(db *core.DB, stmt string) ([]string, error) {
	res, err := querylang.Exec(db, stmt)
	if err != nil {
		return nil, err
	}
	ids := append([]string(nil), res.IDs...)
	sort.Strings(ids)
	return ids, nil
}

// serverAnswer runs one check's statement and returns its ids, sorted
// and without repeats.
func (b *bench) serverAnswer(ctx context.Context, ch oracleCheck) ([]string, error) {
	kind := opQuery
	if ch.stream {
		kind = opStream
	}
	o := queryOp(kind, ch.stmt)
	l := &loader{c: b.c, base: b.srv.base, conns: 1, keepIDs: true}
	oc := l.do(ctx, &o, time.Now())
	if oc.err != nil {
		return nil, oc.err
	}
	ids := append([]string(nil), oc.ids...)
	sort.Strings(ids)
	return slices.Compact(ids), nil
}

func equalSets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// subset reports whether every id of a (sorted) is in b (sorted).
func subset(a, b []string) bool {
	for _, x := range a {
		if !containsSorted(b, x) {
			return false
		}
	}
	return true
}
