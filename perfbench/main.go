// Command perfbench is dphist's serving benchmark. It drives the real
// dphist-server and dphist-router binaries, each in its own process,
// from one client process holding one keep-alive connection per CPU in
// a closed loop, checks sampled answers against the independent
// evaluator in package eval, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}
//
// Usage, from the repository root (perfbench/run.sh builds the binaries
// first):
//
//	perfbench -workload read-zipf|write-durable|replicated-read -seed N -seconds S -trace 0|1
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is traced instead: it times calls into each layer (the HTTP ones
// here, the in-process ones by the perfbench-layers binary) and prints
// the per-layer metrics. See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one run's state.
type bench struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	bin      string
	dir      string
	workers  int
	csv      []byte
	hc       *http.Client // control client for set-up and checks

	setup    tally // set-up operations
	traffic  tally // measured traffic
	problems []string
	metrics  map[string]metric
	checking time.Duration // spent in the benchmark's own checks
}

// check adds the time since start to the time spent checking.
func (b *bench) check(start time.Time) { b.checking += time.Since(start) }

// fail records a correctness problem: the program answered, but not
// what the evaluator or a durability rule says it must.
func (b *bench) fail(format string, args ...any) {
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

func (b *bench) put(name, unit string, v float64) { b.metrics[name] = metric{Value: v, Unit: unit} }

var workloads = map[string]func(*bench) error{
	"read-zipf":       readZipf,
	"write-durable":   writeDurable,
	"replicated-read": replicatedRead,
}

func main() {
	var (
		workload = flag.String("workload", "", "read-zipf, write-durable or replicated-read")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 10, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		bin      = flag.String("bin", filepath.Join(".bench_build", "bin"), "directory holding the built binaries")
	)
	flag.Parse()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		killAll()
		os.Exit(2)
	}()
	code := run(*workload, *seed, *seconds, *trace == 1, *bin)
	killAll()
	os.Exit(code)
}

func run(workload string, seed uint64, seconds int, trace bool, bin string) int {
	fn, ok := workloads[workload]
	if !ok || seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds %d\n", workload, seconds)
		return 2
	}
	for _, name := range []string{"dphist-server", "dphist-router"} {
		if _, err := os.Stat(filepath.Join(bin, name)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v (build with perfbench/run.sh)\n", err)
			return 2
		}
	}
	// Run files go beside the binaries' directory, under the build
	// directory run.sh made.
	dir, err := os.MkdirTemp(filepath.Dir(bin), "run-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	b := &bench{
		workload: workload,
		seed:     seed,
		window:   time.Duration(seconds) * time.Second,
		trace:    trace,
		bin:      bin,
		dir:      dir,
		workers:  runtime.NumCPU(),
		hc:       newHTTPClient(4),
		setup:    tally{},
		traffic:  tally{},
		metrics:  map[string]metric{},
	}
	if err := fn(b); err != nil {
		killAll()
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", workload, err)
		return 1
	}
	killAll()
	fmt.Printf("workload %s, seed %d, %d connections, %v window\n", workload, seed, b.workers, b.window)
	fmt.Println("set-up operations:")
	b.setup.report(0)
	fmt.Println("traffic:")
	b.traffic.report(b.window.Seconds())
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %16.6f %s\n", n, b.metrics[n].Value, b.metrics[n].Unit)
	}
	for _, p := range b.problems {
		fmt.Println("INCORRECT:", p)
	}
	all := tally{}
	all.merge(b.setup)
	all.merge(b.traffic)
	var attempted, failed int64
	for _, c := range all {
		attempted += c.attempted
		failed += c.failed
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(b.problems) == 0, attempted, failed, b.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if len(b.problems) > 0 {
		return 1
	}
	return 0
}
