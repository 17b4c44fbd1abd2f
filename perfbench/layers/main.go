// Command perfbench-layers is the in-process half of perfbench's traced
// run. It times calls into each layer's public functions on one
// workload's own inputs (the dataset, mint bodies, query batches and
// ingest batches perfbench sends to the program) and prints one JSON
// object of per-layer metrics, named after the repository's modules.
//
// Every timing is the median over repeated passes of the mean time per
// item in a pass. The server layer runs dphist-server's handler with a
// durable store, as perfbench deploys it, and without an answer cache.
//
// Usage: perfbench-layers -workload W -seed N -dir D
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/dphist/dphist"
	"github.com/dphist/dphist/internal/core"
	"github.com/dphist/dphist/internal/histo2d"
	"github.com/dphist/dphist/internal/htree"
	"github.com/dphist/dphist/internal/ingest"
	"github.com/dphist/dphist/internal/journal"
	"github.com/dphist/dphist/internal/plan"
	"github.com/dphist/dphist/internal/server"
	"github.com/dphist/dphist/perfbench/eval"
	"github.com/dphist/dphist/perfbench/inputs"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var out = map[string]metric{}

func put(name, unit string, v float64) { out[name] = metric{Value: v, Unit: unit} }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// perItem runs reps passes of fn over items 0..n-1 and returns the
// median of the passes' mean time per item.
func perItem(reps, n int, fn func(i int)) time.Duration {
	var means []float64
	for r := 0; r < reps; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		means = append(means, float64(time.Since(start))/float64(n))
	}
	return time.Duration(median(means))
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench-layers:", err)
		os.Exit(1)
	}
}

// request turns a mint body into the library request it asks for.
func request(m inputs.Mint, counts []float64, cells [][]float64) dphist.Request {
	var body struct {
		Workload *dphist.WorkloadSketch `json:"workload"`
	}
	must(json.Unmarshal(m.Body, &body))
	st, err := dphist.ParseStrategy(m.Strategy)
	must(err)
	return dphist.Request{Strategy: st, Counts: counts, Cells: cells, Epsilon: m.Epsilon, Workload: body.Workload}
}

func rangeSpecs(b inputs.Batch) []dphist.RangeSpec {
	specs := make([]dphist.RangeSpec, len(b.Spans))
	for i, s := range b.Spans {
		specs[i] = dphist.RangeSpec{Lo: s.A, Hi: s.B}
	}
	return specs
}

func rectSpecs(b inputs.Batch) []dphist.RectSpec {
	specs := make([]dphist.RectSpec, len(b.Spans))
	for i, s := range b.Spans {
		specs[i] = dphist.RectSpec{X0: s.A, Y0: s.B, X1: s.C, Y1: s.D}
	}
	return specs
}

func main() {
	workload := flag.String("workload", "", "perfbench workload whose inputs to use")
	seed := flag.Uint64("seed", 1, "workload seed")
	dir := flag.String("dir", "", "scratch directory for the durable layers")
	flag.Parse()
	if *dir == "" {
		must(fmt.Errorf("-dir is required"))
	}
	must(os.MkdirAll(*dir, 0o755))

	counts, _ := inputs.Dataset(*seed)
	cells := make([][]float64, inputs.Domain/inputs.GridWidth)
	for y := range cells {
		cells[y] = counts[y*inputs.GridWidth : (y+1)*inputs.GridWidth]
	}
	releases := inputs.ReleaseSet(*seed, "r")
	// The mints a workload pays for: its set-up releases, or for
	// write-durable the mints of its traffic round.
	mix := releases
	if *workload == "write-durable" {
		mix = inputs.WriteMints(*seed, "w")
	}
	gen := inputs.NewQueries(*seed, 10, releases)
	var batches1D, batches2D []inputs.Batch
	for len(batches1D) < 1000 || len(batches2D) < 1000 {
		b := gen.Next()
		if b.Rects && len(batches2D) < 1000 {
			batches2D = append(batches2D, b)
		} else if !b.Rects && len(batches1D) < 1000 {
			batches1D = append(batches1D, b)
		}
	}
	ingestWalk := inputs.NewWalk(inputs.Rng(*seed, 200))
	ingestBodies := make([][]byte, 256)
	ingestEvents := make([][]ingest.Event, len(ingestBodies))
	for i := range ingestBodies {
		ingestBodies[i] = inputs.Ingest(ingestWalk)
		var body struct {
			Events []ingest.Event `json:"events"`
		}
		must(json.Unmarshal(ingestBodies[i], &body))
		ingestEvents[i] = body.Events
	}

	mech, err := dphist.New(dphist.WithSeed(*seed))
	must(err)
	mechanismLayer(mech, releases, counts, cells)
	coreLayer(counts, *seed)
	workloadLayer(*seed)
	minted := encodeLayer(mech, releases, counts, cells)
	planLayer(minted, batches1D, batches2D)
	storeLayers(mech, filepath.Join(*dir, "store"), releases, mix, counts, cells, batches1D, batches2D)
	serverLayer(filepath.Join(*dir, "server"), *seed, releases, mix, counts, cells, batches1D, batches2D, ingestBodies, ingestEvents)

	data, err := json.Marshal(out)
	must(err)
	fmt.Println(string(data))
}

// mechanismLayer times Mechanism.Release per strategy.
func mechanismLayer(mech *dphist.Mechanism, releases []inputs.Mint, counts []float64, cells [][]float64) {
	for _, st := range inputs.Strategies {
		var m inputs.Mint
		for _, r := range releases {
			if r.Strategy == st {
				m = r
				break
			}
		}
		req := request(m, counts, cells)
		d := perItem(5, 3, func(int) {
			_, err := mech.Release(req)
			must(err)
		})
		put("mechanism.release_ms."+st, "ms", float64(d)/1e6)
	}
}

// coreLayer times the paper's steps on the universal tree: Laplace
// noise over the node vector, H-bar inference, and S-bar inference.
func coreLayer(counts []float64, seed uint64) {
	tree := htree.MustNew(2, len(counts))
	truth := tree.FromLeaves(counts)
	rng := inputs.Rng(seed, 600)
	sens := core.SensitivityH(tree)
	put("core.perturb_us", "us", us(perItem(7, 20, func(int) { core.Perturb(truth, sens, 0.5, rng) })))
	noisy := core.Perturb(truth, sens, 0.5, rng)
	put("core.infer_tree_us", "us", us(perItem(7, 20, func(int) { core.InferTree(tree, noisy) })))
	stilde := core.ReleaseSorted(counts, 0.5, rng)
	put("core.infer_sorted_us", "us", us(perItem(7, 20, func(int) { core.InferSorted(stilde) })))
}

// workloadLayer times the advisor on the sketches of eight auto mints
// drawn as the workload's auto mints are.
func workloadLayer(seed uint64) {
	rng := inputs.Rng(seed, 700)
	var sketches []*dphist.WorkloadSketch
	var eps []float64
	for i := 0; i < 8; i++ {
		m := inputs.NewMint(rng, "auto", "auto")
		sketches = append(sketches, request(m, nil, nil).Workload)
		eps = append(eps, m.Epsilon)
	}
	d := perItem(5, len(sketches), func(i int) {
		w, err := dphist.NewWorkload(inputs.Domain)
		must(err)
		for _, r := range sketches[i].Ranges {
			must(w.Add(r.Lo, r.Hi, r.Weight))
		}
		_, err = w.Recommend(eps[i])
		must(err)
	})
	put("workload.recommend_us", "us", us(d))
}

// mintedRelease is one release minted in-process with its encoding.
type mintedRelease struct {
	strategy string
	rel      dphist.Release
	raw      []byte
}

// encodeLayer mints one release per set-up mint and times its JSON
// encoding and decoding.
func encodeLayer(mech *dphist.Mechanism, releases []inputs.Mint, counts []float64, cells [][]float64) []mintedRelease {
	minted := make([]mintedRelease, len(releases))
	size := 0
	for i, m := range releases {
		rel, err := mech.Release(request(m, counts, cells))
		must(err)
		raw, err := json.Marshal(rel)
		must(err)
		minted[i] = mintedRelease{strategy: rel.Strategy().String(), rel: rel, raw: raw}
		size += len(raw)
	}
	put("encode.release_bytes", "bytes", float64(size)/float64(len(minted)))
	put("encode.release_us", "us", us(perItem(5, len(minted), func(i int) {
		_, err := json.Marshal(minted[i].rel)
		must(err)
	})))
	put("encode.decode_us", "us", us(perItem(5, len(minted), func(i int) {
		_, err := dphist.DecodeRelease(minted[i].raw)
		must(err)
	})))
	return minted
}

// planLayer times plan compilation per strategy from the published
// vectors, and the batch kernels on the workload's batches against the
// hottest 1-D and 2-D releases.
func planLayer(minted []mintedRelease, batches1D, batches2D []inputs.Batch) {
	var tree1D, tree2D *plan.Plan
	for _, m := range minted {
		if _, done := out["plan.compile_us."+m.strategy]; done {
			continue
		}
		r, err := eval.Parse(m.raw)
		must(err)
		leaves := m.rel.Counts()
		var compile func() *plan.Plan
		switch m.strategy {
		case "universal":
			t := htree.MustNew(r.K, r.Domain)
			compile = func() *plan.Plan { return plan.CompileTree(t, r.Post, leaves) }
		case "universal2d":
			g := histo2d.MustNew(r.Width, r.Height)
			compile = func() *plan.Plan { return plan.Compile2D(g, r.Post, leaves) }
		default:
			compile = func() *plan.Plan { return plan.Compile1D(leaves) }
		}
		put("plan.compile_us."+m.strategy, "us", us(perItem(7, 10, func(int) { compile() })))
		switch m.strategy {
		case "universal":
			tree1D = compile()
		case "universal2d":
			tree2D = compile()
		}
	}
	var lo, hi [][]int
	for _, b := range batches1D {
		l, h := make([]int, len(b.Spans)), make([]int, len(b.Spans))
		for i, s := range b.Spans {
			l[i], h[i] = s.A, s.B
		}
		lo, hi = append(lo, l), append(hi, h)
	}
	dst := make([]float64, inputs.BatchSize)
	put("plan.range_batch_ns", "ns", float64(perItem(9, len(lo), func(i int) { tree1D.RangeBatchInto(dst, lo[i], hi[i]) })))
	var x0, y0, x1, y1 [][]int
	for _, b := range batches2D {
		n := len(b.Spans)
		a, c, e, f := make([]int, n), make([]int, n), make([]int, n), make([]int, n)
		for i, s := range b.Spans {
			a[i], c[i], e[i], f[i] = s.A, s.B, s.C, s.D
		}
		x0, y0, x1, y1 = append(x0, a), append(y0, c), append(x1, e), append(y1, f)
	}
	put("plan.rect_batch_ns", "ns", float64(perItem(9, len(x0), func(i int) {
		tree2D.RectBatchInto(dst, x0[i], y0[i], x1[i], y1[i])
	})))
}

// storeLayers times the durable store as deployed: Store.Mint of the
// workload's mix, batch queries against the set-up releases, the
// journal and replication paths fed by the same records, and OpenStore
// recovery on the populated directory.
func storeLayers(mech *dphist.Mechanism, dir string, releases, mix []inputs.Mint,
	counts []float64, cells [][]float64, batches1D, batches2D []inputs.Batch) {
	st, err := dphist.OpenStore(dir, dphist.WithBudget(1e6))
	must(err)
	sess, err := st.Namespace(dphist.DefaultNamespace).Session(mech)
	must(err)
	for _, m := range releases {
		_, _, err := st.Mint(sess, m.Name, request(m, counts, cells))
		must(err)
	}
	wal := filepath.Join(dir, "wal.log")
	before := fileSize(wal)
	reqs := make([]dphist.Request, len(mix))
	for i, m := range mix {
		reqs[i] = request(m, counts, cells)
	}
	const rounds = 3
	put("store.mint_us", "us", us(perItem(rounds, len(mix), func(i int) {
		_, _, err := st.Mint(sess, mix[i].Name, reqs[i])
		must(err)
	})))
	put("journal.bytes_per_mint", "bytes", float64(fileSize(wal)-before)/float64(rounds*len(mix)))

	specs1D := make([][]dphist.RangeSpec, len(batches1D))
	for i, b := range batches1D {
		specs1D[i] = rangeSpecs(b)
	}
	specs2D := make([][]dphist.RectSpec, len(batches2D))
	for i, b := range batches2D {
		specs2D[i] = rectSpecs(b)
	}
	dst := make([]float64, 0, inputs.BatchSize)
	put("store.query_us", "us", us(perItem(9, len(specs1D), func(i int) {
		_, _, err := st.QueryInto(dst, releases[batches1D[i].Release].Name, specs1D[i])
		must(err)
	})))
	put("store.query_rects_us", "us", us(perItem(9, len(specs2D), func(i int) {
		_, _, err := st.QueryRectsInto(dst, releases[batches2D[i].Release].Name, specs2D[i])
		must(err)
	})))

	// Replication: a fresh replica bootstraps from the snapshot and
	// applies every record shipped from the start of the log.
	snap, _, err := st.ReplicationSnapshot()
	must(err)
	put("replica.bootstrap_s", "s", perItem(3, 1, func(int) {
		must(dphist.NewReplica().Bootstrap(snap))
	}).Seconds())
	recs, err := st.ReplicationRead(1)
	must(err)
	shipped := 0
	for _, r := range recs {
		line, err := json.Marshal(r)
		must(err)
		shipped += len(line) + 1 // one NDJSON line per record
	}
	put("replica.bytes_per_record", "bytes", float64(shipped)/float64(len(recs)))
	var applies []float64
	for rep := 0; rep < 3; rep++ {
		r := dphist.NewReplica()
		start := time.Now()
		for _, rec := range recs {
			must(r.Apply(rec))
		}
		applies = append(applies, float64(time.Since(start))/float64(len(recs)))
	}
	put("replica.apply_us", "us", median(applies)/1e3)

	// The journal alone: appending the same records with fsync, and
	// scanning the populated log.
	jdir := filepath.Join(dir, "journal")
	must(os.MkdirAll(jdir, 0o755))
	j, err := journal.Open(filepath.Join(jdir, "wal.log"), nil)
	must(err)
	put("journal.append_us", "us", us(perItem(3, len(recs), func(i int) {
		_, err := j.Append(recs[i])
		must(err)
	})))
	must(j.Close())
	data, err := os.ReadFile(wal)
	must(err)
	put("journal.scan_s", "s", perItem(5, 1, func(int) {
		_, _, err := journal.Scan(data, func(journal.Record) error { return nil })
		must(err)
	}).Seconds())

	// Recovery: close, then reopen the populated directory. Close folds
	// the log into a snapshot, so recovery reads what a restart after a
	// clean shutdown reads.
	must(st.Close())
	put("store.open_s", "s", perItem(3, 1, func(int) {
		s, err := dphist.OpenStore(dir, dphist.WithBudget(1e6))
		must(err)
		must(s.Close())
	}).Seconds())
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	must(err)
	return fi.Size()
}

// rereader is a request body that can be replayed without allocating.
type rereader struct{ bytes.Reader }

func (*rereader) Close() error { return nil }

// sink is a reusable ResponseWriter that keeps the last body.
type sink struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (s *sink) Header() http.Header         { return s.h }
func (s *sink) WriteHeader(status int)      { s.status = status }
func (s *sink) Write(p []byte) (int, error) { return s.body.Write(p) }

// handler replays one request body through h per call.
type handler struct {
	h    http.Handler
	req  *http.Request
	body rereader
	w    sink
}

func newHandler(h http.Handler, path string) *handler {
	x := &handler{h: h, w: sink{h: http.Header{}}}
	req, err := http.NewRequest(http.MethodPost, path, nil)
	must(err)
	req.Body = &x.body
	x.req = req
	return x
}

func (x *handler) serve(body []byte) {
	x.body.Reset(body)
	x.req.ContentLength = int64(len(body))
	x.w.status = http.StatusOK
	x.w.body.Reset()
	x.h.ServeHTTP(&x.w, x.req)
	if x.w.status != http.StatusOK {
		must(fmt.Errorf("%s: status %d: %s", x.req.URL.Path, x.w.status, x.w.body.Bytes()))
	}
}

// serverLayer times dphist-server's handler in-process on the
// workload's request bytes, over a durable store with ingest on.
func serverLayer(dir string, seed uint64, releases, mix []inputs.Mint, counts []float64, cells [][]float64,
	batches1D, batches2D []inputs.Batch, ingestBodies [][]byte, ingestEvents [][]ingest.Event) {
	st, err := dphist.OpenStore(dir, dphist.WithBudget(1e6))
	must(err)
	mech, err := dphist.New(dphist.WithSeed(seed + 1))
	must(err)
	ing, err := ingest.New(ingest.Config{Store: st, Mechanism: mech, Domain: inputs.Domain,
		Epoch: time.Hour, Strategy: dphist.StrategyUniversal, Epsilon: 0.1})
	must(err)
	ing.Start()
	srv, err := server.New(server.Config{Counts: counts, Cells: cells, Budget: 1e6, Seed: seed, Store: st, Ingester: ing})
	must(err)
	h := srv.Handler()

	mint := newHandler(h, "/v1/releases")
	for _, m := range releases {
		mint.serve(m.Body)
	}
	size := 0
	put("server.mint_us", "us", us(perItem(2, len(mix), func(i int) {
		mint.serve(mix[i].Body)
		size += mint.w.body.Len()
	})))
	put("server.mint_response_bytes", "bytes", float64(size)/float64(2*len(mix)))

	query := newHandler(h, "/v1/query")
	put("server.query_us", "us", us(perItem(9, len(batches1D), func(i int) { query.serve(batches1D[i].Body) })))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range batches1D {
		query.serve(b.Body)
	}
	runtime.ReadMemStats(&after)
	put("server.query_allocs", "count", float64(after.Mallocs-before.Mallocs)/float64(len(batches1D)))
	query2d := newHandler(h, "/v1/query2d")
	put("server.query2d_us", "us", us(perItem(9, len(batches2D), func(i int) { query2d.serve(batches2D[i].Body) })))

	in := newHandler(h, "/v1/ingest")
	put("server.ingest_us", "us", us(perItem(5, len(ingestBodies), func(i int) { in.serve(ingestBodies[i]) })))
	put("ingest.ingest_us", "us", us(perItem(5, len(ingestEvents), func(i int) {
		_, err := ing.Ingest(dphist.DefaultNamespace, ingestEvents[i])
		must(err)
	})))
	must(ing.Close())
	must(st.Close())
}
