package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"github.com/dphist/dphist/perfbench/eval"
	"github.com/dphist/dphist/perfbench/inputs"
)

const (
	// setups is how many times a timed run sets the deployment up; the
	// set-up metrics are medians over them.
	setups = 3
	// restarts and followers are how many SIGKILL restarts and fresh
	// followers each set-up times.
	restarts  = 4
	followers = 4
	// writeRounds is how many inputs.WriteRound mint sets every set-up
	// sends after its releases, one mint at a time, each followed by a
	// burst of ingestBurst ingest batches sent back to back: the write
	// path's sample on workloads whose traffic only reads. A burst is
	// timed as a whole, so its event rate does not rest on single
	// sub-millisecond requests, and lasts about a third of a second, so
	// that a short stall of the machine moves it little.
	writeRounds = 3
	ingestBurst = 2048
	// budget is the deployment's per-namespace epsilon budget: large
	// enough that no run exhausts it.
	budget = "1000000"
	// warmup precedes every measured window.
	warmup = time.Second
)

// deployment is one set-up of the program: a durable primary with
// ingest on, restarted after SIGKILL, and a follower that caught up
// with it; replicated-read keeps the follower and adds a router.
type deployment struct {
	primary, follower, router *proc
	releases                  []inputs.Mint
	evals                     []*eval.Release
	versions                  []int          // acknowledged version of each release
	acks                      map[string]int // every acknowledged name's latest version
	acked                     float64        // sum of acknowledged epsilons

	setupS             float64
	recoverS, catchupS []float64
	mintLat            []float64 // ms, sequential set-up mints
	ingestRate         []float64 // events/s, set-up ingest bursts
}

func (b *bench) server() string { return filepath.Join(b.bin, "dphist-server") }

// primaryArgs are deployment flags only: data dir, dataset shape,
// budget, and ingest with an epoch longer than any run.
func primaryArgs(dataDir string) []string {
	return []string{"-data-dir", dataDir, "-domain", fmt.Sprint(inputs.Domain),
		"-grid", fmt.Sprint(inputs.GridWidth), "-budget", budget, "-epoch", "1h"}
}

// sinceMs is the time since start in milliseconds.
func sinceMs(start time.Time) float64 { return float64(time.Since(start).Nanoseconds()) / 1e6 }

// setUp launches the deployment and checks it: set-up mints with the
// paper's properties, SIGKILL restarts that must lose nothing, and
// followers that must answer bit-identically. setup_s counts the time
// the program takes, not the benchmark's own checks or ingest bursts.
func (b *bench) setUp(n int, keepReplica bool) (*deployment, error) {
	d := &deployment{releases: inputs.ReleaseSet(b.seed, "r"), acks: map[string]int{}}
	dataDir := filepath.Join(b.dir, fmt.Sprintf("data-%d", n))
	t0, checked := time.Now(), b.checking
	var bursts time.Duration // ingest bursts: a measurement, not set-up
	p, err := launch("primary", b.server(), b.csv, b.dir, primaryArgs(dataDir)...)
	if err != nil {
		return nil, err
	}
	d.primary = p
	for _, m := range d.releases {
		r, v, ms, err := b.mint(p.url, m)
		b.setup.record("setup-mint", ms, 1, err, true)
		if err != nil {
			return nil, err
		}
		d.mintLat = append(d.mintLat, ms)
		d.evals = append(d.evals, r)
		d.versions = append(d.versions, v)
		d.acks[m.Name] = v
		d.acked += m.Epsilon
	}
	probes := inputs.Probes(b.seed, d.releases)
	before, err := b.probe(p.url, d, probes, "setup-probe")
	if err != nil {
		return nil, err
	}
	b.checkSpent(p.url, d.acked, "after set-up mints")

	// Crash and recover: every restart must list every acknowledged
	// (name, version), keep the spent budget, and answer the probes
	// bit-identically.
	for i := 0; i < restarts; i++ {
		d.primary.kill()
		start := time.Now()
		if d.primary, err = launch("primary", b.server(), b.csv, b.dir, primaryArgs(dataDir)...); err != nil {
			return nil, err
		}
		if err := b.waitListed(d.primary.url, d); err != nil {
			return nil, err
		}
		d.recoverS = append(d.recoverS, time.Since(start).Seconds())
		b.checkSpent(d.primary.url, d.acked, "after SIGKILL restart")
		after, err := b.probe(d.primary.url, d, probes, "setup-probe")
		if err != nil {
			return nil, err
		}
		b.sameAnswers("restarted primary", before, after)
	}
	p = d.primary

	// Fresh followers catch up with the primary's journal.
	var st statsReply
	if err := getJSON(b.hc, p.url+"/v1/stats", &st); err != nil {
		return nil, err
	}
	for i := 0; i < followers; i++ {
		d.follower.kill()
		start := time.Now()
		if d.follower, err = launch("follower", b.server(), nil, b.dir, "-follow", p.url); err != nil {
			return nil, err
		}
		if err := b.waitApplied(d.follower.url, st.JournalSeq); err != nil {
			return nil, err
		}
		d.catchupS = append(d.catchupS, time.Since(start).Seconds())
		replica, err := b.probe(d.follower.url, d, probes, "setup-probe")
		if err != nil {
			return nil, err
		}
		b.sameAnswers("follower", before, replica)
	}
	// The write mints and ingest batches come last, so recovery and
	// catch-up above read the same fixed content in every set-up. They
	// alternate, so both samples spread over the same stretch of time.
	// Each burst starts once the follower has applied the round's
	// mints: otherwise its apply, some 60 ms of CPU on a 2-CPU machine,
	// overlaps a varying share of the burst and sets its rate.
	walk := inputs.NewWalk(inputs.Rng(b.seed, 3))
	for r := 0; r < writeRounds; r++ {
		for _, m := range inputs.WriteMints(b.seed+uint64(r), "w") {
			_, v, ms, err := b.mint(p.url, m)
			b.setup.record("setup-mint", ms, 1, err, true)
			if err != nil {
				return nil, err
			}
			d.mintLat = append(d.mintLat, ms)
			d.acks[m.Name] = v
			d.acked += m.Epsilon
		}
		if err := getJSON(b.hc, p.url+"/v1/stats", &st); err != nil {
			return nil, err
		}
		if err := b.waitApplied(d.follower.url, st.JournalSeq); err != nil {
			return nil, err
		}
		bodies := make([][]byte, ingestBurst)
		for i := range bodies {
			bodies[i] = inputs.Ingest(walk)
		}
		burst := time.Now()
		for _, body := range bodies {
			start := time.Now()
			err := b.ingest(p.url, body, inputs.BatchSize)
			b.setup.record("setup-ingest", sinceMs(start), inputs.BatchSize, err, true)
			if err != nil {
				return nil, err
			}
		}
		took := time.Since(burst)
		bursts += took
		d.ingestRate = append(d.ingestRate, ingestBurst*inputs.BatchSize/took.Seconds())
	}
	if keepReplica {
		d.router, err = launch("router", filepath.Join(b.bin, "dphist-router"), nil, b.dir,
			"-shard", p.url+","+d.follower.url)
		if err != nil {
			return nil, err
		}
	} else {
		d.follower.kill()
		d.follower = nil
	}
	d.setupS = (time.Since(t0) - (b.checking - checked) - bursts).Seconds()
	return d, nil
}

func (d *deployment) kill() {
	d.router.kill()
	d.follower.kill()
	d.primary.kill()
}

// segment is one deployment's traffic: it runs the workload's closed
// loop for the given window against d and checks what it sampled.
type segment func(d *deployment, window time.Duration) error

// runSegments sets the deployment up `setups` times and measures a
// share of the window on each, so that a run averages over several
// launches of the program rather than resting on one. The set-up
// metrics are medians over every set-up: setup_s, recover_s and
// catchup_s, and the sequential set-up mints and ingest bursts, which
// stand for the write path on the workloads whose traffic only reads.
// A traced run sets up once and traces the last deployment.
func (b *bench) runSegments(keepReplica bool, traffic segment) error {
	_, b.csv = inputs.Dataset(b.seed)
	n := setups
	if b.trace {
		n = 1
	}
	var setupS, recoverS, catchupS, mintLat, ingestRate, rss []float64
	for i := 0; i < n; i++ {
		d, err := b.setUp(i, keepReplica)
		if err != nil {
			return err
		}
		setupS = append(setupS, d.setupS)
		recoverS = append(recoverS, d.recoverS...)
		catchupS = append(catchupS, d.catchupS...)
		mintLat = append(mintLat, d.mintLat...)
		ingestRate = append(ingestRate, d.ingestRate...)
		if err := traffic(d, b.window/time.Duration(n)); err != nil {
			return err
		}
		mb := 0.0
		for _, p := range []*proc{d.primary, d.follower, d.router} {
			if p != nil {
				v, err := p.peakRSSMB()
				if err != nil {
					return err
				}
				mb += v
			}
		}
		rss = append(rss, mb)
		if b.trace {
			serving := d.primary
			if d.follower != nil {
				serving = d.follower
			}
			return b.traceLayers(d, serving)
		}
		d.kill()
	}
	b.put("setup_s", "s", median(setupS))
	b.put("recover_s", "s", median(recoverS))
	b.put("catchup_s", "s", median(catchupS))
	b.put("rss_mb", "MB", median(rss))
	var lat []float64
	for _, name := range []string{"query", "query2d"} {
		lat = append(lat, b.traffic.get(name).lat...)
	}
	b.put("query_p50_ms", "ms", median(lat))
	b.put("query_per_s", "1/s", float64(len(lat))/b.window.Seconds())
	var mints []float64
	for name, c := range b.traffic {
		if strings.HasPrefix(name, "mint/") {
			mints = append(mints, c.lat...)
		}
	}
	if len(mints) > 0 {
		b.put("mint_p50_ms", "ms", median(mints))
		b.put("mint_per_s", "1/s", float64(len(mints))/b.window.Seconds())
		b.put("ingest_events_per_s", "1/s", float64(b.traffic.get("ingest").units)/b.window.Seconds())
	} else {
		b.put("mint_p50_ms", "ms", median(mintLat))
		b.put("mint_per_s", "1/s", 1e3/median(mintLat))
		b.put("ingest_events_per_s", "1/s", median(ingestRate))
	}
	return nil
}

// mint posts one /v1/releases request and checks the reply: the
// strategy and epsilon asked for, and the paper's properties on the
// published vectors.
func (b *bench) mint(url string, m inputs.Mint) (*eval.Release, int, float64, error) {
	var buf bytes.Buffer
	start := time.Now()
	c, err := post(b.hc, url+"/v1/releases", m.Body, &buf)
	ms := sinceMs(start)
	if err = statusErr(c, err); err != nil {
		return nil, 0, ms, err
	}
	r, v, err := b.checkMint(m, c.body)
	return r, v, ms, err
}

// checkMint validates a mint reply against the request that made it.
// A reply that cannot be read is an error; a reply that breaks a
// property is a correctness problem.
func (b *bench) checkMint(m inputs.Mint, raw []byte) (*eval.Release, int, error) {
	defer b.check(time.Now())
	var reply mintReply
	if err := json.Unmarshal(raw, &reply); err != nil {
		return nil, 0, fmt.Errorf("mint %s: %w", m.Name, err)
	}
	r, err := eval.Parse(reply.Release)
	if err != nil {
		return nil, 0, fmt.Errorf("mint %s: %w", m.Name, err)
	}
	switch {
	case reply.Name != m.Name:
		b.fail("mint %s: reply names %q", m.Name, reply.Name)
	case reply.Epsilon != m.Epsilon || r.Epsilon != m.Epsilon:
		b.fail("mint %s: epsilon %v/%v, asked %v", m.Name, reply.Epsilon, r.Epsilon, m.Epsilon)
	case m.Strategy == "auto" && (len(reply.Auto) == 0 || !slices.Contains(inputs.Strategies, r.Strategy)):
		b.fail("mint %s: auto resolved to %q with decision %s", m.Name, r.Strategy, reply.Auto)
	case m.Strategy != "auto" && r.Strategy != m.Strategy:
		b.fail("mint %s: minted %q, asked %q", m.Name, r.Strategy, m.Strategy)
	case reply.Strategy != r.Strategy:
		b.fail("mint %s: reply says %q, release says %q", m.Name, reply.Strategy, r.Strategy)
	}
	if err := r.Check(); err != nil {
		b.fail("mint %s: %v", m.Name, err)
	}
	return r, reply.Version, nil
}

func (b *bench) ingest(url string, body []byte, events int) error {
	var reply struct {
		Accepted int `json:"accepted"`
	}
	if err := postJSON(b.hc, url+"/v1/ingest", body, &reply); err != nil {
		return err
	}
	if reply.Accepted != events {
		return fmt.Errorf("ingest: %d of %d events accepted", reply.Accepted, events)
	}
	return nil
}

// probe asks every probe batch of the deployment's releases and checks
// the answers against the evaluator, returning the raw replies.
func (b *bench) probe(url string, d *deployment, probes []inputs.Batch, cls string) ([]queryReply, error) {
	out := make([]queryReply, len(probes))
	var buf bytes.Buffer
	for i, pb := range probes {
		start := time.Now()
		c, err := post(b.hc, url+pb.Path(), pb.Body, &buf)
		err = statusErr(c, err)
		b.setup.record(cls, sinceMs(start), 1, err, true)
		if err != nil {
			return nil, err
		}
		checkStart := time.Now()
		if err := json.Unmarshal(c.body, &out[i]); err != nil {
			return nil, fmt.Errorf("%s reply: %w", pb.Path(), err)
		}
		b.check(checkStart)
		b.checkAnswers(d, pb, out[i])
	}
	return out, nil
}

// checkAnswers compares one reply with the evaluator: the release and
// version it names, and every answer.
func (b *bench) checkAnswers(d *deployment, batch inputs.Batch, reply queryReply) {
	defer b.check(time.Now())
	m := d.releases[batch.Release]
	if reply.Name != m.Name || reply.Version != d.versions[batch.Release] {
		b.fail("query %s: answered from %s version %d, want version %d",
			m.Name, reply.Name, reply.Version, d.versions[batch.Release])
		return
	}
	check := eval.CheckRanges
	if batch.Rects {
		check = eval.CheckRects
	}
	if err := check(d.evals[batch.Release], batch.Spans, reply.Answers); err != nil {
		b.fail("query %s version %d: %v", m.Name, reply.Version, err)
	}
}

// sameAnswers requires two sets of replies to agree bit for bit.
func (b *bench) sameAnswers(what string, want, got []queryReply) {
	for i := range want {
		if got[i].Version != want[i].Version || len(got[i].Answers) != len(want[i].Answers) {
			b.fail("%s: probe %d answered version %d with %d answers, want version %d with %d",
				what, i, got[i].Version, len(got[i].Answers), want[i].Version, len(want[i].Answers))
			continue
		}
		for j := range want[i].Answers {
			if math.Float64bits(got[i].Answers[j]) != math.Float64bits(want[i].Answers[j]) {
				b.fail("%s: probe %d answer %d is %v, want %v", what, i, j, got[i].Answers[j], want[i].Answers[j])
				break
			}
		}
	}
}

// checkSpent requires the namespace's spent budget to equal the sum of
// acknowledged epsilons. The epsilons are binary fractions, so the sum
// is exact in any order.
func (b *bench) checkSpent(url string, acked float64, when string) {
	var reply budgetReply
	if err := getJSON(b.hc, url+"/v1/budget", &reply); err != nil {
		b.fail("budget %s: %v", when, err)
		return
	}
	if reply.Spent != acked {
		b.fail("budget %s: spent %v, acknowledged mints sum to %v", when, reply.Spent, acked)
	}
}

// waitListed polls GET /v1/releases until every acknowledged release is
// listed; a listed version other than the acknowledged one is a
// correctness problem.
func (b *bench) waitListed(url string, d *deployment) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		var list listReply
		if err := getJSON(b.hc, url+"/v1/releases", &list); err != nil {
			return err
		}
		listed := map[string]int{}
		for _, r := range list.Releases {
			listed[r.Name] = r.Version
		}
		missing := 0
		for name, want := range d.acks {
			v, ok := listed[name]
			if !ok {
				missing++
			} else if v != want {
				b.fail("recovery: %s listed at version %d, acknowledged %d", name, v, want)
			}
		}
		if missing == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("recovery: %d acknowledged releases not listed", missing)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitApplied polls a follower's /v1/stats until it has applied seq.
func (b *bench) waitApplied(url string, seq uint64) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st statsReply
		if err := getJSON(b.hc, url+"/v1/stats", &st); err != nil {
			return err
		}
		if st.Replication.AppliedSeq >= seq {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower at seq %d, primary at %d", st.Replication.AppliedSeq, seq)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// sample is a query reply kept for checking after the window, so the
// evaluator does not compete with the program for CPU while measured.
type sample struct {
	batch inputs.Batch
	body  []byte
}

func (b *bench) checkSamples(d *deployment, samples [][]sample) {
	for _, ws := range samples {
		for _, s := range ws {
			var reply queryReply
			if err := json.Unmarshal(s.body, &reply); err != nil {
				b.fail("query reply: %v", err)
				continue
			}
			b.checkAnswers(d, s.batch, reply)
		}
	}
}

// statusErr turns a reply that is not 200 into an error.
func statusErr(c call, err error) error {
	if err != nil {
		return err
	}
	if c.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", c.status, bytes.TrimSpace(c.body[:min(len(c.body), 200)]))
	}
	return nil
}

// readZipf: fresh correlated ranges and rectangles with Zipf popularity
// over releases of every HTTP-servable strategy, answered by the
// primary alone. Almost no batch repeats, so an answer cache only
// misses; the write path sits idle while measured.
func readZipf(b *bench) error {
	hc := newHTTPClient(b.workers)
	return b.runSegments(false, func(d *deployment, window time.Duration) error {
		gens := make([]*inputs.Queries, b.workers)
		samples := make([][]sample, b.workers)
		bufs := make([]bytes.Buffer, b.workers)
		for w := range gens {
			gens[w] = inputs.NewQueries(b.seed, uint64(10+w), d.releases)
		}
		n := make([]int, b.workers)
		b.traffic.merge(closedLoop(b.workers, warmup, window, func(w int) (string, int64, error) {
			batch := gens[w].Next()
			cls := "query"
			if batch.Rects {
				cls = "query2d"
			}
			c, err := post(hc, d.primary.url+batch.Path(), batch.Body, &bufs[w])
			if err = statusErr(c, err); err != nil {
				return cls, 0, err
			}
			if n[w]++; n[w]%4 == 0 {
				samples[w] = append(samples[w], sample{batch: batch, body: bytes.Clone(c.body)})
			}
			return cls, 1, nil
		}))
		b.checkSamples(d, samples)
		return nil
	})
}

// writeDurable: mostly mints across every strategy (some "auto" with a
// range sketch) on the durable primary with fsync as deployed, with
// fresh-range queries and ingest batches alongside, in the fixed round
// inputs.WriteRound per connection.
func writeDurable(b *bench) error {
	hc := newHTTPClient(b.workers)
	return b.runSegments(false, func(d *deployment, window time.Duration) error {
		type state struct {
			gen     *inputs.Queries
			walk    *inputs.Walk
			mintRng *rand.Rand
			step    int
			queries int
			minted  int
			acked   float64
			samples []sample
			mints   []inputs.Mint
			bodies  [][]byte
			buf     bytes.Buffer
		}
		st := make([]*state, b.workers)
		for w := range st {
			st[w] = &state{
				gen:     inputs.NewQueries(b.seed, uint64(10+w), d.releases),
				walk:    inputs.NewWalk(inputs.Rng(b.seed, uint64(200+w))),
				mintRng: inputs.Rng(b.seed, uint64(300+w)),
			}
		}
		round := inputs.WriteRound
		b.traffic.merge(closedLoop(b.workers, warmup, window, func(w int) (string, int64, error) {
			s := st[w]
			kind := round[s.step%len(round)]
			s.step++
			switch kind {
			case "query":
				batch := s.gen.Next()
				cls := "query"
				if batch.Rects {
					cls = "query2d"
				}
				c, err := post(hc, d.primary.url+batch.Path(), batch.Body, &s.buf)
				if err = statusErr(c, err); err != nil {
					return cls, 0, err
				}
				if s.queries++; s.queries%4 == 0 {
					s.samples = append(s.samples, sample{batch: batch, body: bytes.Clone(c.body)})
				}
				return cls, 1, nil
			case "ingest":
				c, err := post(hc, d.primary.url+"/v1/ingest", inputs.Ingest(s.walk), &s.buf)
				if err = statusErr(c, err); err != nil {
					return "ingest", 0, err
				}
				if !bytes.Contains(c.body, []byte(fmt.Sprintf(`"accepted":%d,`, inputs.BatchSize))) {
					return "ingest", 0, fmt.Errorf("ingest: %s", bytes.TrimSpace(c.body))
				}
				return "ingest", inputs.BatchSize, nil
			}
			// Each connection re-mints one name per kind, so every mint
			// is a new version and the store holds the same number of
			// releases however long the run.
			m := inputs.NewMint(s.mintRng, fmt.Sprintf("m%d-%s", w, kind), kind)
			c, err := post(hc, d.primary.url+"/v1/releases", m.Body, &s.buf)
			if err = statusErr(c, err); err != nil {
				return "mint/" + kind, 0, err
			}
			s.acked += m.Epsilon
			// Keep every 4th mint reply, up to 32 per connection, for
			// the property checks after the window.
			if s.minted++; s.minted%4 == 0 && len(s.mints) < 32 {
				s.mints = append(s.mints, m)
				s.bodies = append(s.bodies, bytes.Clone(c.body))
			}
			return "mint/" + kind, 1, nil
		}))
		acked := d.acked
		var samples [][]sample
		for _, s := range st {
			acked += s.acked
			samples = append(samples, s.samples)
			for i, m := range s.mints {
				if _, _, err := b.checkMint(m, s.bodies[i]); err != nil {
					b.fail("%v", err)
				}
			}
		}
		b.checkSamples(d, samples)
		b.checkSpent(d.primary.url, acked, "after the window")
		return nil
	})
}

// replicatedRead: a durable primary, a follower that caught up, and
// dphist-router in front of both. Traffic goes through the router and
// replays a fixed set of dashboard batches per release, with Zipf
// popularity, so the router hop, the follower's applied state and any
// answer cache's hit path are what is measured.
func replicatedRead(b *bench) error {
	// Eight batches per release make 112 dashboards, a small fixed set
	// that the answer cache's default capacity (1024 per query family)
	// holds whole.
	const perRelease = 8
	hc := newHTTPClient(b.workers)
	return b.runSegments(true, func(d *deployment, window time.Duration) error {
		dash := inputs.Dashboards(b.seed, d.releases, perRelease)
		// The follower must answer every dashboard bit-identically to
		// the primary before traffic starts.
		for _, batches := range dash {
			want, err := b.probe(d.primary.url, d, batches, "setup-dashboard")
			if err != nil {
				return err
			}
			got, err := b.probe(d.follower.url, d, batches, "setup-dashboard")
			if err != nil {
				return err
			}
			b.sameAnswers("follower dashboard", want, got)
		}
		zipf := inputs.NewZipf(len(d.releases))
		type state struct {
			rng   *rand.Rand
			first map[int][]byte
			buf   bytes.Buffer
			bad   int
		}
		st := make([]*state, b.workers)
		for w := range st {
			st[w] = &state{rng: inputs.Rng(b.seed, uint64(400+w)), first: map[int][]byte{}}
		}
		b.traffic.merge(closedLoop(b.workers, warmup, window, func(w int) (string, int64, error) {
			s := st[w]
			rel := zipf.Draw(s.rng)
			j := s.rng.IntN(perRelease)
			batch := dash[rel][j]
			cls := "query"
			if batch.Rects {
				cls = "query2d"
			}
			c, err := post(hc, d.router.url+batch.Path(), batch.Body, &s.buf)
			if err = statusErr(c, err); err != nil {
				return cls, 0, err
			}
			// Every reply of a dashboard must equal its first bit for
			// bit; the first is checked against the evaluator below.
			key := rel*perRelease + j
			if prev, ok := s.first[key]; !ok {
				s.first[key] = bytes.Clone(c.body)
			} else if !bytes.Equal(prev, c.body) {
				s.bad++
			}
			return cls, 1, nil
		}))
		for w, s := range st {
			if s.bad > 0 {
				b.fail("connection %d: %d dashboard replies differ from the first reply", w, s.bad)
			}
			var samples []sample
			for key, body := range s.first {
				samples = append(samples, sample{batch: dash[key/perRelease][key%perRelease], body: body})
			}
			b.checkSamples(d, [][]sample{samples})
		}
		return nil
	})
}
