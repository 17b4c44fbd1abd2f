// Package inputs generates everything the benchmark sends to the
// program from one seed: the protected dataset (NetTrace-like records
// from internal/datagen), the mint bodies, the query batches and the
// ingest batches. The same seed gives the same inputs; the program
// receives nothing else, so the noise it draws is its own.
package inputs

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"

	"github.com/dphist/dphist/internal/datagen"
	"github.com/dphist/dphist/perfbench/eval"
)

// The traffic's shape is the repository's own load generator's:
// internal/loadgen's defaults, which dphist-loadgen and dphist-bench
// loadtest run with. perfbench does not import that package, because it
// must keep the spans of every query to check the answers, but it draws
// ranges, rectangles, popularity and ingest events the same way.
const (
	// Domain is the 1-D domain every release covers: the NetTrace
	// domain of internal/experiments at its small scale, a complete
	// binary tree of height 13.
	Domain = 4096
	// ActiveHosts is the NetTrace active-host count at the same scale.
	ActiveHosts = 1200
	// GridWidth folds the domain into a 64 x 64 grid for universal2d,
	// the grid dphist-bench loadtest serves.
	GridWidth = 64
	// BatchSize is the number of ranges, rectangles or ingest events
	// per request: loadgen's -batch default.
	BatchSize = 8
	// ZipfS is the popularity exponent over releases, with loadgen's
	// v = 1: loadgen's -zipf-s default.
	ZipfS = 1.2
	// Correlation is the probability that the next position steps at
	// most Domain/16 from the last rather than jumping uniformly:
	// loadgen's -correlation default.
	Correlation = 0.6
)

// Strategies are the strategies dphist-server mints over HTTP, in
// popularity order. The first four follow dphist-bench loadtest's
// releases, hottest first: universal, universal2d, laplace, wavelet.
var Strategies = []string{"universal", "universal2d", "laplace", "wavelet", "unattributed", "degree_sequence"}

// Rng returns the generator for one stream of a seed.
func Rng(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// Dataset returns the protected unit counts and the CSV records that
// carry them to dphist-server: one line per record, column 0 its
// position. The shape is internal/experiments' NetTrace at its small
// scale; the other parameters keep datagen's defaults.
func Dataset(seed uint64) ([]float64, []byte) {
	counts := datagen.NetTraceCounts(datagen.NetTraceConfig{
		DomainSize:  Domain,
		ActiveHosts: ActiveHosts,
	}, Rng(seed, 1))
	var csv []byte
	for pos, c := range counts {
		for i := 0; i < int(c); i++ {
			csv = strconv.AppendInt(csv, int64(pos), 10)
			csv = append(csv, '\n')
		}
	}
	return counts, csv
}

// Mint is one /v1/releases request.
type Mint struct {
	Name     string
	Strategy string // "auto" for an advisor-resolved mint
	Epsilon  float64
	Body     []byte
}

// epsilons are the paper's privacy levels {1, 0.1, 0.01}, each rounded
// to the nearest power of two, so the client's sum of acknowledged
// epsilons is exact in any order and can be compared with the server's
// ledger bit for bit.
var epsilons = []float64{1, 0.125, 0.0078125}

// NewMint builds a mint body. An "auto" mint carries a range sketch
// that describes the query traffic: one batch of BatchSize ranges drawn
// as the query batches are, each with weight 1.
func NewMint(rng *rand.Rand, name, strategy string) Mint {
	m := Mint{Name: name, Strategy: strategy, Epsilon: epsilons[rng.IntN(len(epsilons))]}
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"name":%q,"strategy":%q,"epsilon":%v`, name, strategy, m.Epsilon)
	if strategy == "auto" {
		b.WriteString(`,"workload":{"ranges":[`)
		w := NewWalk(rng)
		for i := 0; i < BatchSize; i++ {
			lo, hi := w.span1D()
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"lo":%d,"hi":%d,"weight":1}`, lo, hi)
		}
		b.WriteString(`]}`)
	}
	b.WriteByte('}')
	m.Body = b.Bytes()
	return m
}

// SetupReleases is the fixed count of releases every set-up mints: two
// of each HTTP-servable strategy and two "auto", so that each strategy
// is queried at a hot and at a cold popularity rank.
const SetupReleases = 14

// ReleaseSet returns the set-up mints, cycling through Strategies and
// "auto", so release i has popularity rank i.
func ReleaseSet(seed uint64, prefix string) []Mint {
	rng := Rng(seed, 2)
	cycle := append(Strategies[:len(Strategies):len(Strategies)], "auto")
	out := make([]Mint, SetupReleases)
	for i := range out {
		st := cycle[i%len(cycle)]
		out[i] = NewMint(rng, fmt.Sprintf("%s-%02d-%s", prefix, i, st), st)
	}
	return out
}

// WriteRound is one write-durable connection's cycle of operations. Its
// mix is dphist-bench loadtest's (query 0.85, mint 0.10, ingest 0.05)
// with the query and mint weights swapped, so that mints dominate: 16
// mints, 2 query batches and 1 ingest batch. The mints weight the
// strategies as loadgen's default mint mix does (universal 3, laplace
// 1, unattributed 1), extended with universal2d, wavelet and "auto" at
// weight 1, and doubled. degree_sequence is left out: its graphical
// projection takes from 7 ms to over 300 ms depending on the dataset,
// so a round holding it would time the dataset drawn from the seed
// rather than the write path. The set-up still mints it.
var WriteRound = []string{
	"universal", "laplace", "universal2d", "universal", "query", "unattributed", "wavelet", "universal", "auto",
	"ingest",
	"universal", "laplace", "universal2d", "universal", "query", "unattributed", "wavelet", "universal", "auto",
}

// WriteMints returns the mints of one WriteRound.
func WriteMints(seed uint64, prefix string) []Mint {
	rng := Rng(seed, 4)
	var out []Mint
	for i, op := range WriteRound {
		if op != "query" && op != "ingest" {
			out = append(out, NewMint(rng, fmt.Sprintf("%s-%02d-%s", prefix, i, op), op))
		}
	}
	return out
}

// Zipf draws release ranks with probability proportional to
// 1/(rank+1)^ZipfS, as math/rand's Zipf with v = 1 does for loadgen.
type Zipf struct{ cdf []float64 }

// NewZipf returns the popularity distribution over n ranks.
func NewZipf(n int) *Zipf {
	z := &Zipf{cdf: make([]float64, n)}
	total := 0.0
	for i := range z.cdf {
		total += 1 / math.Pow(float64(i+1), ZipfS)
		z.cdf[i] = total
	}
	for i := range z.cdf {
		z.cdf[i] /= total
	}
	return z
}

// Draw returns a rank.
func (z *Zipf) Draw(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Walk is loadgen's correlated position walk: with probability
// Correlation the next position is a short step from the last,
// otherwise a uniform jump, as an analyst drilling into a region does.
type Walk struct {
	rng    *rand.Rand
	cursor int
}

// NewWalk returns a walk starting at a uniform position.
func NewWalk(rng *rand.Rand) *Walk {
	return &Walk{rng: rng, cursor: rng.IntN(Domain)}
}

// Next advances the walk and returns a position in [0, domain).
func (w *Walk) Next(domain int) int {
	if w.rng.Float64() < Correlation {
		w.cursor += w.rng.IntN(domain/8+2) - domain/16
	} else {
		w.cursor = w.rng.IntN(domain)
	}
	w.cursor = min(max(w.cursor, 0), domain-1)
	return w.cursor
}

// span1D draws a range as loadgen does: a walked start and a width
// uniform up to the end of the domain.
func (w *Walk) span1D() (int, int) {
	lo := w.Next(Domain)
	return lo, lo + w.rng.IntN(Domain-lo) + 1
}

// Batch is one query batch: ranges against a 1-D release, or
// rectangles against a universal2d one.
type Batch struct {
	Release int // index into the release set
	Rects   bool
	Spans   []eval.Span
	Body    []byte
}

// Path is the route the batch is posted to.
func (b *Batch) Path() string {
	if b.Rects {
		return "/v1/query2d"
	}
	return "/v1/query"
}

// Queries generates fresh batches, Zipf over releases, with loadgen's
// correlated walk: almost no batch repeats.
type Queries struct {
	walk     *Walk
	zipf     *Zipf
	releases []Mint
}

// NewQueries returns the batch stream of one client connection.
func NewQueries(seed, stream uint64, releases []Mint) *Queries {
	return &Queries{walk: NewWalk(Rng(seed, 100+stream)), zipf: NewZipf(len(releases)), releases: releases}
}

// Next returns the next batch.
func (q *Queries) Next() Batch {
	return q.batch(q.zipf.Draw(q.walk.rng), nil)
}

// batch builds a batch for release i; empties lists the query slots
// that are empty ranges or rectangles. A rectangle walks its x0, draws
// y0 uniformly and extends each side uniformly up to the grid's edge,
// as loadgen's do.
func (q *Queries) batch(i int, empties map[int]bool) Batch {
	m := q.releases[i]
	b := Batch{Release: i, Rects: m.Strategy == "universal2d"}
	rng := q.walk.rng
	var buf bytes.Buffer
	fmt.Fprintf(&buf, `{"name":%q,`, m.Name)
	if b.Rects {
		buf.WriteString(`"rects":[`)
	} else {
		buf.WriteString(`"ranges":[`)
	}
	for k := 0; k < BatchSize; k++ {
		if k > 0 {
			buf.WriteByte(',')
		}
		if b.Rects {
			x0, y0 := q.walk.Next(GridWidth), rng.IntN(GridWidth)
			x1, y1 := x0+rng.IntN(GridWidth-x0)+1, y0+rng.IntN(GridWidth-y0)+1
			if empties[k] {
				x1 = x0
			}
			b.Spans = append(b.Spans, eval.Span{A: x0, B: y0, C: x1, D: y1})
			fmt.Fprintf(&buf, `{"x0":%d,"y0":%d,"x1":%d,"y1":%d}`, x0, y0, x1, y1)
			continue
		}
		lo, hi := q.walk.span1D()
		if empties[k] {
			hi = lo
		}
		b.Spans = append(b.Spans, eval.Span{A: lo, B: hi})
		fmt.Fprintf(&buf, `{"lo":%d,"hi":%d}`, lo, hi)
	}
	buf.WriteString(`]}`)
	b.Body = buf.Bytes()
	return b
}

// Probes returns one batch per release whose first and last queries are
// empty, for the set-up checks: Range(k,k) answers 0, and answers are
// bit-identical across a restart or a replica.
func Probes(seed uint64, releases []Mint) []Batch {
	q := NewQueries(seed, 1, releases)
	empties := map[int]bool{0: true, BatchSize - 1: true}
	out := make([]Batch, len(releases))
	for i := range out {
		out[i] = q.batch(i, empties)
	}
	return out
}

// Dashboards returns the fixed batches a dashboard replays: perRelease
// per release.
func Dashboards(seed uint64, releases []Mint, perRelease int) [][]Batch {
	q := NewQueries(seed, 2, releases)
	out := make([][]Batch, len(releases))
	for i := range out {
		for j := 0; j < perRelease; j++ {
			out[i] = append(out[i], q.batch(i, nil))
		}
	}
	return out
}

// IngestStream is the stream every ingest event posts to.
const IngestStream = "perfbench"

// Ingest returns a /v1/ingest body as loadgen builds one: BatchSize
// unit-weight events on one stream, buckets following the walk.
func Ingest(w *Walk) []byte {
	var buf bytes.Buffer
	buf.WriteString(`{"events":[`)
	for i := 0; i < BatchSize; i++ {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, `{"stream":%q,"bucket":%d}`, IngestStream, w.Next(Domain))
	}
	buf.WriteString(`]}`)
	return buf.Bytes()
}
