package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"seqrep/api"
	"seqrep/internal/breaking"
	"seqrep/internal/feature"
	"seqrep/internal/pattern"
	"seqrep/internal/rep"
	"seqrep/internal/seq"
)

// workload is one traffic mix against one server configuration.
type workload struct {
	name string
	// rate is the offered load of the measured phase, in requests per
	// second, and limitMS the p99 latency limit every route must meet for
	// a rate to count toward slo.max_rps. probe is the rate ladder that
	// search walks.
	rate    float64
	limitMS float64
	probe   ladder
	// budgetShare sets -memory-budget to this share of the corpus payload
	// bytes; 0 keeps every record resident.
	budgetShare float64
	// ckptEvery checkpoints after this many acknowledged writes, so the
	// flush policy is the same on every run (0: the mix writes nothing).
	ckptEvery int
	// deleteShare of the corpus is set aside for deletes; statements
	// never name those records.
	deleteShare float64
	draw        func(m *mix) op
}

// writes reports whether the mix writes.
func (w *workload) writes() bool { return w.ckptEvery > 0 }

// ladder is a geometric rate ladder: rung i offers lo·step^i requests per
// second. The search bisects over its rungs, so the result moves in steps
// of a fixed share and not of a fixed rate.
type ladder struct {
	lo, step float64
	rungs    int
}

func (l ladder) rate(i int) float64 {
	r := l.lo
	for ; i > 0; i-- {
		r *= l.step
	}
	return r
}

var workloads = []*workload{
	{
		name:    "similarity",
		rate:    100,
		limitMS: 250,
		probe:   ladder{lo: 100, step: 1.08, rungs: 32},
		draw:    drawSimilarity,
	},
	{
		name:        "durable-paged",
		rate:        60,
		limitMS:     250,
		probe:       ladder{lo: 80, step: 1.08, rungs: 32},
		budgetShare: 0.10,
		ckptEvery:   200,
		deleteShare: 0.2,
		draw:        drawDurable,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// mix draws a workload's requests. Exemplars come from ids no request
// ever deletes; deletes take the rest of the corpus in a seeded order.
// ECG exemplars are drawn at a fixed share, uniformly, so every seed's
// statements carry the same share of 540-sample exemplars; the other
// exemplars follow the workload's popularity law.
type mix struct {
	g         *gen
	exemplars []string // every id a statement may name
	ecg       []string // the ECG strips among them
	fever     []string // the rest, in popularity order for zipf
	zipf      *rand.Zipf
	deletable []string
	decks     map[string]*deck
	vals      map[string][]float64 // every corpus record's samples
	anchors   map[string]bool      // shape-exemplar verdicts, by id
	// seen, drawn and repeats measure how many drawn exemplars repeat an
	// earlier one.
	seen           map[string]bool
	drawn, repeats int
}

// deck deals the indexes of weights in rounds, each holding index i
// weights[i] times, so any stretch of draws keeps the mix's proportions
// exactly. A spread deck deals every round in the same order, with each
// index's cards spaced evenly (smooth weighted round-robin): heavy
// statements never bunch up, and every seed queues requests behind them
// alike. Other decks shuffle each round with the seed.
type deck struct {
	weights []int
	spread  bool
	cards   []int
}

func (d *deck) deal(rng *rand.Rand) int {
	if len(d.cards) == 0 {
		d.cards = d.round(rng)
	}
	c := d.cards[0]
	d.cards = d.cards[1:]
	return c
}

func (d *deck) round(rng *rand.Rand) []int {
	total := 0
	for _, w := range d.weights {
		total += w
	}
	cards := make([]int, 0, total)
	if d.spread {
		current := make([]int, len(d.weights))
		for len(cards) < total {
			best := 0
			for i, w := range d.weights {
				current[i] += w
				if current[i] > current[best] {
					best = i
				}
			}
			current[best] -= total
			cards = append(cards, best)
		}
		return cards
	}
	for i, w := range d.weights {
		for j := 0; j < w; j++ {
			cards = append(cards, i)
		}
	}
	rng.Shuffle(len(cards), func(a, b int) { cards[a], cards[b] = cards[b], cards[a] })
	return cards
}

// deal draws from the named spread deck, made with weights on first use.
func (m *mix) deal(name string, weights ...int) int {
	d := m.decks[name]
	if d == nil {
		d = &deck{weights: weights, spread: true}
		m.decks[name] = d
	}
	return d.deal(m.g.rng)
}

func newMix(g *gen, corpus []item, deleteShare float64) *mix {
	ids := make([]string, len(corpus))
	for i, it := range corpus {
		ids[i] = it.ID
	}
	g.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	nDel := int(deleteShare * float64(len(ids)))
	m := &mix{g: g, exemplars: ids[nDel:], deletable: ids[:nDel], vals: map[string][]float64{}}
	for _, it := range corpus {
		m.vals[it.ID] = it.Values
	}
	m.reset()
	return m
}

// reset splits the exemplars by kind and restarts the repeat count.
func (m *mix) reset() {
	m.ecg, m.fever = nil, nil
	for _, id := range m.exemplars {
		if strings.HasSuffix(id, "e") {
			m.ecg = append(m.ecg, id)
		} else {
			m.fever = append(m.fever, id)
		}
	}
	// s = 1.1, v = 10: about half the drawn exemplars repeat, a fifth of
	// the statements, so the result cache serves a minority of queries.
	m.zipf = rand.NewZipf(m.g.rng, 1.1, 10, uint64(len(m.fever)-1))
	m.seen, m.decks, m.anchors = map[string]bool{}, map[string]*deck{}, map[string]bool{}
	m.drawn, m.repeats = 0, 0
}

func (m *mix) note(id string) string {
	m.drawn++
	if m.seen[id] {
		m.repeats++
	}
	m.seen[id] = true
	return id
}

// ecgEvery sets, for each use of an exemplar, one statement in how many
// names an ECG strip; the rest name fever curves. The O(n²) exemplar DFT
// makes ECG statements the slowest class of every similarity route, and
// each share is chosen so that the route's tail sample (ten samples
// beyond it) lands inside that class rather than on the border between
// classes, where it would flip between them from run to run. The
// similarity query route keeps the corpus's 2%.
var ecgEvery = map[string]int{
	"similarity query": 50, "similarity stream": 17,
	"durable query": 50, "durable stream": 7,
}

// drawECG deals from the use's deck whether its next exemplar is an ECG
// strip.
func (m *mix) drawECG(use string) bool {
	return len(m.ecg) > 0 && m.deal("ecg "+use, ecgEvery[use]-1, 1) == 1
}

func (m *mix) zipfExemplar(use string) string {
	if m.drawECG(use) {
		return m.note(m.ecg[m.g.rng.Intn(len(m.ecg))])
	}
	return m.note(m.fever[m.zipf.Uint64()])
}

func (m *mix) uniformExemplar(use string) string {
	if m.drawECG(use) {
		return m.ecgExemplar()
	}
	return m.note(m.fever[m.g.rng.Intn(len(m.fever))])
}

func (m *mix) ecgExemplar() string { return m.note(m.ecg[m.g.rng.Intn(len(m.ecg))]) }

// shapeExemplar draws an ECG exemplar that can anchor MATCH SHAPE: its
// stored form must have a peak, or the engine rejects the statement.
func (m *mix) shapeExemplar() string {
	for {
		id := m.ecgExemplar()
		ok, seen := m.anchors[id]
		if !seen {
			ok = hasPeaks(m.vals[id])
			m.anchors[id] = ok
		}
		if ok {
			return id
		}
	}
}

// hasPeaks runs vals through seqserved's default pipeline (interpolation
// breaking at ε = 0.5, slope threshold δ = 0.25) twice, as the server
// does for a shape exemplar it loads from its stored representation, and
// reports whether the profile has a peak.
func hasPeaks(vals []float64) bool {
	const epsilon, delta = 0.5, 0.25
	profile := func(s seq.Sequence) *rep.FunctionSeries {
		segs, err := breaking.Interpolation(epsilon).Break(s)
		if err != nil {
			return nil
		}
		fs, err := rep.Build(s, segs, nil)
		if err != nil {
			return nil
		}
		return fs
	}
	fs := profile(seq.New(vals))
	if fs == nil {
		return false
	}
	stored, err := fs.Reconstruct()
	if err != nil {
		return false
	}
	if fs = profile(stored); fs == nil {
		return false
	}
	p, err := feature.Extract(fs, delta)
	return err == nil && len(p.Peaks) > 0
}

// intn deals 0..n-1 from the deck named for its use, so each value
// recurs in fixed proportion.
func (m *mix) intn(use string, n int) int {
	d := m.decks[use]
	if d == nil {
		d = &deck{weights: make([]int, n)}
		for i := range d.weights {
			d.weights[i] = 1
		}
		m.decks[use] = d
	}
	return d.deal(m.g.rng)
}

func (m *mix) pick(xs ...string) string { return xs[m.intn(strings.Join(xs, "|"), len(xs))] }

// indexed draws a statement the planner answers from the feature index.
// use names the workload, which sets the forms' weights.
func (m *mix) indexed(id, use string) string {
	switch m.deal("indexed "+use, indexedWeights[use]...) {
	case 0:
		return fmt.Sprintf("MATCH DISTANCE LIKE %s METRIC l2 EPS %s", id, m.pick("2", "3", "4"))
	case 1:
		return fmt.Sprintf("MATCH DISTANCE LIKE %s METRIC zl2 EPS %s", id, m.pick("0.5", "0.8"))
	case 2:
		return fmt.Sprintf("MATCH VALUE LIKE %s EPS %s", id, m.pick("0.5", "0.8"))
	default:
		return fmt.Sprintf("MATCH DISTANCE LIKE %s METRIC l2 TOP %s BY DISTANCE", id, m.pick("5", "10"))
	}
}

// indexedWeights are the weights of the l2, zl2, value and TOP k forms.
// On the paged node a TOP k query pages in every candidate it visits and
// takes ten times an EPS query; at a quarter of the queries, as on the
// resident node, the route's median sat on the border between the two
// classes and moved by a fifth between seeds.
var indexedWeights = map[string][]int{
	"similarity": {8, 7, 7, 8},
	"durable":    {10, 10, 10, 2},
}

// progStmt is a progressive statement with the exact statement it
// refines and, under WITHIN ERROR e, the exact statement at radius EPS + e
// its accepted ids may not leave.
type progStmt struct{ stmt, exact, wide string }

// progressive draws a WITHIN ERROR or APPROX distance statement. The
// value form (form 2) runs the whole cascade over every record, a
// scan-sized cost that would queue the indexed statements behind it; only
// the answer check sends it.
func (m *mix) progressive(id string) progStmt {
	return m.progressiveForm(id, m.deal("progressive", 3, 2))
}

func (m *mix) progressiveForm(id string, form int) progStmt {
	var p progStmt
	switch form {
	case 0:
		eps, e := m.pickF(3, 4), m.pickF(0.5, 1)
		p.exact = fmt.Sprintf("MATCH DISTANCE LIKE %s METRIC l2 EPS %s", id, num(eps))
		p.stmt = p.exact + " WITHIN ERROR " + num(e)
		p.wide = fmt.Sprintf("MATCH DISTANCE LIKE %s METRIC l2 EPS %s", id, num(eps+e))
	case 1:
		p.exact = fmt.Sprintf("MATCH DISTANCE LIKE %s METRIC l2 EPS 3", id)
		p.stmt = p.exact + " APPROX " + m.pick("sketch", "candidate")
	default:
		p.exact = fmt.Sprintf("MATCH VALUE LIKE %s EPS 0.8", id)
		p.stmt = p.exact + " WITHIN ERROR 0.5"
		p.wide = fmt.Sprintf("MATCH VALUE LIKE %s EPS %s", id, num(0.8+0.5))
	}
	return p
}

func (m *mix) pickF(xs ...float64) float64 { return xs[m.intn(fmt.Sprint(xs), len(xs))] }

// num formats v so that it parses back to the same float64.
func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// patternRegex draws from a seeded family of slope-sign regexes.
func (m *mix) patternRegex() string {
	a, b := 1+m.intn("pattern a", 3), 1+m.intn("pattern b", 3)
	switch m.intn("pattern", 5) {
	case 0:
		return pattern.ExactlyPeaks(1 + m.intn("exactly", 3))
	case 1:
		return pattern.AtLeastPeaks(1 + m.intn("at least", 3))
	case 2:
		return fmt.Sprintf(".*U{%d,}F*D{%d,}.*", a, b)
	case 3:
		return fmt.Sprintf("[UF]*D{%d,}[FD]*U.*", a)
	default:
		return fmt.Sprintf(".*(UF|FU){%d}.*D.*", a)
	}
}

func (m *mix) findRegex() string {
	a, b := 1+m.intn("find a", 3), 1+m.intn("find b", 3)
	switch m.intn("find", 3) {
	case 0:
		return fmt.Sprintf("U{%d,}D{%d,}", a, b)
	case 1:
		return "U+F*D+"
	default:
		return fmt.Sprintf("D{%d,}F*U", a)
	}
}

// feature draws one of the paper's generalized approximate queries, or an
// l1 distance query, which only the scan plan answers. Shape and l1
// statements name ECG exemplars: they then compare against the 540-sample
// records only and take 2-5 ms, where a fever exemplar's full scan takes
// 15-30 ms, and indexed statements on the other connection would queue
// behind it.
func (m *mix) feature() string {
	switch m.deal("feature", 4, 3, 3, 3, 2, 2) {
	case 0:
		return fmt.Sprintf("MATCH PATTERN '%s'", m.patternRegex())
	case 1:
		return fmt.Sprintf("FIND PATTERN '%s'", m.findRegex())
	case 2:
		k := m.intn("peaks", 6)
		return fmt.Sprintf("MATCH PEAKS %d TOLERANCE %d", 1+k/2, k%2)
	case 3:
		// One in five asks for an ECG RR interval, the rest for a fever
		// peak spacing.
		if m.intn("interval kind", 5) == 0 {
			return fmt.Sprintf("MATCH INTERVAL %d +- %d", 115+m.intn("rr", 30), 1+m.intn("rr tol", 2))
		}
		return fmt.Sprintf("MATCH INTERVAL %d +- %d", 28+m.intn("spacing", 12), 1+m.intn("spacing tol", 2))
	case 4:
		return fmt.Sprintf("MATCH SHAPE LIKE %s PEAKS %d HEIGHT %s SPACING %s", m.shapeExemplar(),
			m.intn("shape peaks", 2), m.pick("0.1", "0.25"), m.pick("0.1", "0.3"))
	default:
		return fmt.Sprintf("MATCH DISTANCE LIKE %s METRIC l1 EPS %s", m.ecgExemplar(), m.pick("15", "30"))
	}
}

func queryOp(kind opKind, stmt string) op {
	b, _ := json.Marshal(api.QueryRequest{Query: stmt}) // a string field cannot fail to encode
	return op{kind: kind, stmt: stmt, body: b}
}

func ingestOp(it item) op {
	b, _ := json.Marshal(api.IngestRequest{ID: it.ID, Values: it.Values})
	return op{kind: opIngest, body: b, items: []item{it}}
}

func batchOp(items []item) op {
	req := api.BatchRequest{Items: make([]api.IngestRequest, len(items))}
	for i, it := range items {
		req.Items[i] = api.IngestRequest{ID: it.ID, Values: it.Values}
	}
	b, _ := json.Marshal(req)
	return op{kind: opBatch, body: b, items: items}
}

// drawSimilarity deals indexed queries, progressive streams and, at one
// request in 21, a feature statement on /v1/query.
func drawSimilarity(m *mix) op {
	switch m.deal("similarity", 15, 5, 1) {
	case 0:
		return queryOp(opQuery, m.indexed(m.zipfExemplar("similarity query"), "similarity"))
	case 1:
		return queryOp(opStream, m.progressive(m.zipfExemplar("similarity stream")).stmt)
	default:
		return queryOp(opQuery, m.feature())
	}
}

func drawDurable(m *mix) op {
	switch m.deal("durable", 10, 1, 1, 5, 3) {
	case 0:
		return ingestOp(m.write())
	case 1:
		items := make([]item, 4)
		for i := range items {
			items[i] = m.write()
		}
		return batchOp(items)
	case 2:
		if len(m.deletable) == 0 {
			return ingestOp(m.write())
		}
		id := m.deletable[0]
		m.deletable = m.deletable[1:]
		return op{kind: opDelete, del: id}
	case 3:
		return queryOp(opQuery, m.indexed(m.uniformExemplar("durable query"), "durable"))
	default:
		return queryOp(opStream, m.progressive(m.uniformExemplar("durable stream")).stmt)
	}
}

// write draws a new record to ingest. One in 21 is an ECG strip, dealt
// like the ECG exemplars, so that the ingest tail sample lands among the
// ECG ingests, whose two O(n²) DFTs make them the slowest.
func (m *mix) write() item {
	m.g.next++
	id := fmt.Sprintf("w%06d", m.g.next)
	if m.deal("ecg write", 20, 1) == 1 {
		return item{ID: id + "e", Values: m.g.ecg()}
	}
	return item{ID: id + "f", Values: m.g.fever()}
}

// draw builds a phase of n requests at rate per second.
func (w *workload) phase(m *mix, n int, rate float64) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = w.draw(m)
	}
	schedule(ops, rate)
	return ops
}

// count returns how many requests a phase of d at rate holds.
func count(d time.Duration, rate float64) int {
	return max(1, int(d.Seconds()*rate))
}
