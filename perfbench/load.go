package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"seqrep/api"
)

// opKind is a request route of the generated traffic.
type opKind int

const (
	opQuery  opKind = iota // POST /v1/query
	opStream               // POST /v1/query/stream
	opIngest               // POST /v1/ingest
	opBatch                // POST /v1/ingest/batch
	opDelete               // DELETE /v1/records/{id}
)

func (k opKind) String() string {
	return [...]string{"query", "stream", "ingest", "batch", "delete"}[k]
}

func (k opKind) write() bool { return k >= opIngest }

// op is one scheduled request, built in full before it is due.
type op struct {
	kind opKind
	due  time.Duration // offset from the start of its phase
	stmt string        // query and stream statements
	body []byte
	// items are the records an ingest or batch writes; del is the id a
	// delete removes.
	items []item
	del   string
}

// outcome is what one request observed. Latencies run from the request's
// due time, so a stall delays every later request by its full length.
type outcome struct {
	lat    time.Duration // to the last body byte, or to a stream's trailer
	first  time.Duration // streams: to the first frame carrying a match
	svc    time.Duration // queries: from sending the request to its last byte
	lag    time.Duration // how late the generator handed the request out
	err    error
	stats  *api.QueryStats
	cached bool
	ids    []string // with loader.keepIDs: the ids the answer accepted, in order
}

// phase is the record of one open-loop phase.
type phase struct {
	ops     []op
	out     []outcome
	backlog int // requests waiting for a connection when the last was due
}

// loader sends scheduled requests over at most conns keep-alive
// connections.
type loader struct {
	c     *http.Client
	base  string
	conns int
	// keepIDs decodes the ids of every answer; timed phases skip them,
	// so that the generator's decoding stays small.
	keepIDs bool
}

// run dispatches ops on their schedule and waits for every answer.
func (l *loader) run(ctx context.Context, ops []op) *phase {
	p := &phase{ops: ops, out: make([]outcome, len(ops))}
	p.backlog = dispatch(ops, l.conns, func(i int, due time.Time, lag time.Duration) {
		oc := l.do(ctx, &ops[i], due)
		oc.lag = lag
		p.out[i] = oc
	})
	return p
}

// dispatch hands each op to one of workers goroutines when it is due, and
// waits until all are done. A worker runs do with the op's due time and
// how late the op was handed out. It returns the number of ops still
// waiting for a worker when the last one was due.
func dispatch(ops []op, workers int, do func(i int, due time.Time, lag time.Duration)) (backlog int) {
	// Sized to the number of sends, so dispatch never blocks on a busy
	// worker: queueing shows up as latency, not as a late schedule.
	queue := make(chan int, len(ops))
	lags := make([]time.Duration, len(ops))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				do(i, start.Add(ops[i].due), lags[i])
			}
		}()
	}
	for i := range ops {
		due := start.Add(ops[i].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lags[i] = time.Since(due)
		if i == len(ops)-1 {
			backlog = len(queue)
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return backlog
}

// do sends one request and times it from due.
func (l *loader) do(ctx context.Context, o *op, due time.Time) outcome {
	var oc outcome
	method, path, want := http.MethodPost, "", http.StatusOK
	switch o.kind {
	case opQuery:
		path = "/v1/query"
	case opStream:
		path = "/v1/query/stream"
	case opIngest:
		path, want = "/v1/ingest", http.StatusCreated
	case opBatch:
		path = "/v1/ingest/batch"
	case opDelete:
		method, path = http.MethodDelete, "/v1/records/"+o.del
	}
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(ctx, method, l.base+path, body)
	if err != nil {
		oc.err = err
		return oc
	}
	sent := time.Now()
	resp, err := l.c.Do(req)
	if err != nil {
		oc.err = err
		return oc
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		b, _ := io.ReadAll(resp.Body)
		oc.err = fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
		return oc
	}
	if o.kind == opStream {
		oc.err = readStream(resp.Body, due, &oc, l.keepIDs)
		return oc
	}
	b, err := io.ReadAll(resp.Body)
	oc.lat, oc.svc = time.Since(due), time.Since(sent)
	if err != nil {
		oc.err = err
		return oc
	}
	if o.kind == opQuery {
		var qr struct {
			IDs    json.RawMessage `json:"ids"`
			Stats  *api.QueryStats `json:"stats"`
			Cached bool            `json:"cached"`
		}
		err := json.Unmarshal(b, &qr)
		if err == nil && l.keepIDs && qr.IDs != nil {
			err = json.Unmarshal(qr.IDs, &oc.ids)
		}
		if err != nil {
			oc.err = fmt.Errorf("decoding query answer: %w", err)
		}
		oc.stats, oc.cached = qr.Stats, qr.Cached
	}
	return oc
}

// readStream consumes an NDJSON answer, noting the first frame that
// carries an accepted id, the trailer and, with keepIDs, the ids. A
// progressive final frame without a match rejects its record and carries
// no id. A stream without a match frame has its first answer at the
// trailer.
func readStream(r io.Reader, due time.Time, oc *outcome, keepIDs bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var f api.StreamFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return fmt.Errorf("decoding stream frame: %w", err)
		}
		var id string
		switch {
		case f.Error != "":
			return fmt.Errorf("stream error frame: %s", f.Error)
		case f.Done:
			oc.lat = time.Since(due)
			if oc.first == 0 {
				oc.first = oc.lat
			}
			oc.stats = f.Stats
			return nil
		case f.Match != nil:
			id = f.Match.ID
		case f.Hit != nil:
			id = f.Hit.ID
		case f.Interval != nil:
			id = f.Interval.ID
		default:
			id = f.ID
		}
		if id == "" {
			continue // a header or refinement frame
		}
		if oc.first == 0 {
			oc.first = time.Since(due)
		}
		if keepIDs {
			oc.ids = append(oc.ids, id)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("stream ended without a trailer frame")
}

// schedule spaces n requests evenly at rate per second.
func schedule(ops []op, rate float64) {
	for i := range ops {
		ops[i].due = time.Duration(float64(i) / rate * float64(time.Second))
	}
}

// tailRank returns the highest percentile, at most want, that leaves at
// least ten samples beyond it among n; below 11 samples it is the median.
func tailRank(n int, want float64) float64 {
	if n < 11 {
		return 50
	}
	return math.Min(want, 100*float64(n-10)/float64(n))
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	// The slack keeps a rank that is a whole number in exact arithmetic
	// from rounding up to the next one.
	i := int(math.Ceil(p/100*float64(len(sorted))-1e-9)) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// latencies collects one route's latencies in milliseconds, sorted. A
// failed request counts as +Inf: it misses every limit.
func latencies(p *phase, kind opKind, first bool) []float64 {
	var out []float64
	for i := range p.ops {
		if p.ops[i].kind != kind {
			continue
		}
		oc := p.out[i]
		switch {
		case oc.err != nil:
			out = append(out, math.Inf(1))
		case first:
			out = append(out, ms(oc.first))
		default:
			out = append(out, ms(oc.lat))
		}
	}
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// failures counts failed requests and returns the first error seen.
func failures(p *phase) (int, error) {
	n := 0
	var first error
	for _, oc := range p.out {
		if oc.err != nil {
			if first == nil {
				first = oc.err
			}
			n++
		}
	}
	return n, first
}
