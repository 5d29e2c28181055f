package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"soda"
	"soda/internal/queryparse"
)

// The four workloads. Each exists to put its weight on a different layer;
// README.md records why and what each one bypasses.
const (
	exploreHot  = "explore_hot"
	adhocCold   = "adhoc_cold"
	snippetExec = "snippet_exec"
	feedbackMix = "feedback_mix"
)

var workloadNames = []string{exploreHot, adhocCold, snippetExec, feedbackMix}

// Sizes. A workload's queries are fixed: they are generated from
// populationSeed, not from the run's seed, so that two runs do the same
// work however they are seeded. The seed orders them and makes the Zipf
// draws. A timed list is cycled when a run outlasts it; a query of a
// distinct-query workload then returns only after all the others of its
// list, when the 512-entry answer cache has long dropped it.
const (
	populationSeed = 20120827 // the paper's VLDB

	hotSetSize     = 200 // explore_hot working set, below the 512-entry cache
	hotRotateEvery = 512 // requests after which the popularity ranks move on by hotRotateStep queries
	hotRotateStep  = 37  // coprime to hotSetSize: every query gets every rank

	coldWarm     = 500
	coldDistinct = 40000

	// snippet_exec runs few, dear and heavy-tailed requests (a tenth of
	// them take half the time). Its list is short enough that each round
	// of a run goes through about all of it, and long enough that a query
	// has left the 512-entry cache, 256 per shard, before it returns.
	snippetWarm     = 300
	snippetDistinct = 900

	mixPool       = 256 // feedback_mix queries, all sent once before timing
	mixWindow     = 8   // of which this many are hot at any time: a hit share near 0.8
	mixSlideEvery = 100 // requests after which the hot window moves on by one query: a round sees most of the pool
	mixTargets    = 32  // queries the writes like and dislike, in turn
	mixWriteEvery = 50  // every 50th request of the list is a write

	scheduleLen = 1 << 16
)

var dialects = []string{"generic", "postgres", "mysql", "db2"}

// request is one HTTP request in all the forms the rungs need: the bytes
// a socket client writes, and the fields an in-process call takes.
type request struct {
	path     string // "/search" or "/feedback"
	body     []byte
	wire     []byte // complete HTTP/1.1 request
	query    string
	dialect  string
	snippets bool
	like     bool // feedback only
}

func (r *request) isWrite() bool { return r.path == "/feedback" }

// inputs is everything a workload sends, fixed by (workload, seed).
type inputs struct {
	workload string
	world    string
	dataDir  bool      // sodad runs with -data-dir
	warm     []request // sent once each, in order, before timing
	primed   int       // warm[i] is reqs[i] below this: the requests the timed list repeats
	reqs     []request
	schedule []int32 // timed list: indices into reqs
	sha256   string
}

func newWorld(name string) *soda.World {
	if name == "minibank" {
		return soda.MiniBank()
	}
	return soda.Warehouse(soda.WarehouseConfig{})
}

func worldOf(workload string) string {
	if workload == snippetExec {
		return "minibank"
	}
	return "warehouse"
}

// generate builds a workload's inputs from the seed alone.
func generate(workload string, seed int64) (*inputs, error) {
	in := &inputs{workload: workload, world: worldOf(workload)}
	w := newWorld(in.world)
	g := newGenerator(w, populationSeed)
	rng := rand.New(rand.NewSource(seed))
	// The members of every list are the same for every seed, which only
	// orders them: one query can cost tens of times another, and a list
	// drawn afresh per seed measures the draw.
	shuffled := func(qs []string) []string {
		rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
		return qs
	}
	switch workload {
	case exploreHot:
		for _, q := range shuffled(g.distinct(hotSetSize)) {
			in.reqs = append(in.reqs, searchRequest(q, "", false))
		}
		in.warm, in.primed = in.reqs, hotSetSize
		// Zipf over the hot set, with the ranks moving through it: at any
		// moment a few queries take most of the traffic, and over a run
		// every query has been one of them, so that a run does not measure
		// the response size of whichever query the seed ranked first.
		in.schedule = zipfSchedule(rng, hotSetSize, scheduleLen)
		for i := range in.schedule {
			in.schedule[i] = (in.schedule[i] + int32(hotRotateStep*(i/hotRotateEvery))) % hotSetSize
		}
	case adhocCold:
		qs := g.distinct(coldWarm + coldDistinct)
		for i, q := range shuffled(qs[:coldWarm]) {
			in.warm = append(in.warm, searchRequest(q, dialects[i%len(dialects)], false))
		}
		for i, q := range shuffled(qs[coldWarm:]) {
			in.reqs = append(in.reqs, searchRequest(q, dialects[i%len(dialects)], false))
		}
		in.schedule = identity(coldDistinct)
	case snippetExec:
		qs := g.distinct(snippetWarm + snippetDistinct)
		for _, q := range shuffled(qs[:snippetWarm]) {
			in.warm = append(in.warm, searchRequest(q, "", true))
		}
		for _, q := range shuffled(qs[snippetWarm:]) {
			in.reqs = append(in.reqs, searchRequest(q, "", true))
		}
		in.schedule = identity(snippetDistinct)
	case feedbackMix:
		in.dataDir = true
		qs := g.distinct(mixPool + 10*mixTargets)
		targets, err := feedbackTargets(w, qs[mixPool:])
		if err != nil {
			return nil, err
		}
		pool := shuffled(qs[:mixPool])
		for _, q := range pool {
			in.reqs = append(in.reqs, searchRequest(q, "", false))
		}
		in.warm, in.primed = in.reqs, mixPool
		for _, q := range targets {
			in.reqs = append(in.reqs, feedbackRequest(q, true), feedbackRequest(q, false))
		}
		// Zipf over a window of the pool that slides on by one query every
		// mixSlideEvery requests, the newest query ranked first.
		in.schedule = zipfSchedule(rng, mixWindow, scheduleLen)
		for i := range in.schedule {
			newest := i/mixSlideEvery + mixWindow - 1
			in.schedule[i] = (int32(newest) - in.schedule[i]) % mixPool
			if i%mixWriteEvery == mixWriteEvery-1 {
				n := i / mixWriteEvery // like every target in turn, then dislike every one
				in.schedule[i] = int32(mixPool + 2*(n%mixTargets) + n/mixTargets%2)
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	}
	in.sha256 = in.hash()
	return in, nil
}

func identity(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

func (in *inputs) hash() string {
	h := sha256.New()
	put := func(rs []request) {
		for i := range rs {
			h.Write([]byte(rs[i].path))
			h.Write([]byte{0})
			h.Write(rs[i].body)
			h.Write([]byte{0})
		}
	}
	fmt.Fprintf(h, "%s|%s|%t|", in.workload, in.world, in.dataDir)
	put(in.warm)
	h.Write([]byte{1})
	put(in.reqs)
	h.Write([]byte{1})
	binary.Write(h, binary.LittleEndian, in.schedule)
	return hex.EncodeToString(h.Sum(nil))
}

func searchRequest(query, dialect string, snippets bool) request {
	body, _ := json.Marshal(struct {
		Query    string `json:"query"`
		Snippets bool   `json:"snippets,omitempty"`
		Dialect  string `json:"dialect,omitempty"`
	}{query, snippets, dialect})
	return request{path: "/search", body: body, wire: wireOf("/search", body),
		query: query, dialect: dialect, snippets: snippets}
}

func feedbackRequest(query string, like bool) request {
	body, _ := json.Marshal(struct {
		Query  string `json:"query"`
		Result int    `json:"result"`
		Like   bool   `json:"like"`
	}{query, 0, like})
	return request{path: "/feedback", body: body, wire: wireOf("/feedback", body), query: query, like: like}
}

func wireOf(path string, body []byte) []byte {
	head := "POST " + path + " HTTP/1.1\r\nHost: sodad\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\n\r\n"
	return append([]byte(head), body...)
}

// generator draws SODA input queries from a world's own vocabulary with
// the paper's §5.1.3 mix: 45% plain keywords, 20% keyword plus a base-data
// value, 15% comparisons, 15% aggregations, 5% top-N. It is the
// benchmark's own, so that its inputs do not move when the repo's other
// generators are simplified.
type generator struct {
	rng    *rand.Rand
	labels []string
	terms  []string
}

func newGenerator(w *soda.World, seed int64) *generator {
	return &generator{
		rng:    rand.New(rand.NewSource(seed)),
		labels: w.Meta().Labels(), // sorted
		terms:  w.Index().Terms(), // sorted
	}
}

func (g *generator) label() string { return g.labels[g.rng.Intn(len(g.labels))] }
func (g *generator) term() string  { return g.terms[g.rng.Intn(len(g.terms))] }

func (g *generator) keywords(n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = g.label()
	}
	return strings.Join(parts, " ")
}

func (g *generator) query() string {
	switch p := g.rng.Float64(); {
	case p < 0.45:
		return g.keywords(1 + g.rng.Intn(3))
	case p < 0.65:
		return g.label() + " " + g.term()
	case p < 0.80:
		return g.comparison()
	case p < 0.95:
		return g.aggregation()
	default:
		return fmt.Sprintf("top %d %s", 1+g.rng.Intn(20), g.keywords(1+g.rng.Intn(2)))
	}
}

func (g *generator) comparison() string {
	op := []string{">", ">=", "=", "<=", "<", "like"}[g.rng.Intn(6)]
	var value string
	switch g.rng.Intn(3) {
	case 0:
		value = strconv.Itoa(g.rng.Intn(1_000_000))
	case 1:
		value = fmt.Sprintf("date(%04d-%02d-%02d)", 1950+g.rng.Intn(70), 1+g.rng.Intn(12), 1+g.rng.Intn(28))
	default:
		value = g.term()
	}
	q := g.label() + " " + op + " " + value
	if g.rng.Float64() < 0.3 {
		q += " and " + g.label()
	}
	return q
}

func (g *generator) aggregation() string {
	fn := []string{"sum", "count", "avg", "min", "max"}[g.rng.Intn(5)]
	q := fn + " (" + g.label() + ")"
	if g.rng.Float64() < 0.5 {
		q += " group by (" + g.label() + ")"
	}
	if g.rng.Float64() < 0.3 {
		q += " " + g.label()
	}
	return q
}

// distinct returns n different queries that all parse: a parse error is
// the only way /search rejects an input, and a workload must not contain
// an operation that fails.
func (g *generator) distinct(n int) []string {
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		q := g.query()
		if seen[q] {
			continue
		}
		seen[q] = true
		if _, err := queryparse.Parse(q); err != nil {
			continue
		}
		out = append(out, q)
	}
	return out
}

// zipfSchedule draws length indices below n with P(k) ∝ 1/(k+1).
func zipfSchedule(rng *rand.Rand, n, length int) []int32 {
	cum := make([]float64, n)
	total := 0.0
	for k := range cum {
		total += 1 / float64(k+1)
		cum[k] = total
	}
	out := make([]int32, length)
	for i := range out {
		k := sort.SearchFloat64s(cum, rng.Float64()*total)
		out[i] = int32(min(k, n-1))
	}
	return out
}

// feedbackTargets picks the queries the writes like and dislike: the
// first mixTargets candidates with at least two ranked results, so that a
// re-ranking has something to reorder and result 0 always exists.
func feedbackTargets(w *soda.World, candidates []string) ([]string, error) {
	sys := soda.NewSystem(w, soda.Options{})
	var out []string
	for _, q := range candidates {
		if ans, err := sys.Search(q); err == nil && len(ans.Results) >= 2 {
			if out = append(out, q); len(out) == mixTargets {
				return out, nil
			}
		}
	}
	return nil, fmt.Errorf("%s: only %d of %d candidate queries have two results", feedbackMix, len(out), len(candidates))
}
