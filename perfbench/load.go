package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// class tallies one operation class: every attempt, every failure, and
// the latency of each operation that started after warm-up and ended
// inside the measured window.
type class struct {
	attempted int64
	failed    int64
	firstErr  string
	lat       []float64 // ms
	units     int64     // work items completed in the window (events for ingest)
}

func (c *class) merge(o *class) {
	c.attempted += o.attempted
	c.failed += o.failed
	if c.firstErr == "" {
		c.firstErr = o.firstErr
	}
	c.lat = append(c.lat, o.lat...)
	c.units += o.units
}

// tally holds classes by name.
type tally map[string]*class

func (t tally) get(name string) *class {
	c, ok := t[name]
	if !ok {
		c = &class{}
		t[name] = c
	}
	return c
}

// record counts one operation; lat is recorded only when measured.
func (t tally) record(name string, ms float64, units int64, err error, measured bool) {
	c := t.get(name)
	c.attempted++
	if err != nil {
		c.failed++
		if c.firstErr == "" {
			c.firstErr = err.Error()
		}
		return
	}
	if measured {
		c.lat = append(c.lat, ms)
		c.units += units
	}
}

func (t tally) merge(o tally) {
	for name, c := range o {
		t.get(name).merge(c)
	}
}

// op performs one operation for worker wid and names its class and the
// work items it carried.
type op func(wid int) (cls string, units int64, err error)

// closedLoop runs workers connections, each sending its next request
// only after the previous reply: warm-up first, then the measured
// window. It returns the per-class tallies.
func closedLoop(workers int, warmup, window time.Duration, fn op) tally {
	start := time.Now()
	from := start.Add(warmup)
	until := from.Add(window)
	tallies := make([]tally, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		tallies[w] = tally{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				t0 := time.Now()
				if !t0.Before(until) {
					return
				}
				cls, units, err := fn(w)
				t1 := time.Now()
				measured := !t0.Before(from) && !t1.After(until)
				tallies[w].record(cls, float64(t1.Sub(t0).Nanoseconds())/1e6, units, err, measured)
			}
		}(w)
	}
	wg.Wait()
	out := tally{}
	for _, t := range tallies {
		out.merge(t)
	}
	return out
}

// tail returns the highest of p99.9, p99 and p90 that has at least ten
// samples beyond it, with its label; ok is false under 100 samples.
func tail(lat []float64) (label string, v float64, ok bool) {
	for _, q := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}} {
		if float64(len(lat))*(1-q.q) >= 10 {
			return q.label, quantile(lat, q.q), true
		}
	}
	return "", 0, false
}

// report prints one line per class: attempts, failures, median and
// tail latency with the sample count, and rate in the window.
func (t tally) report(window float64) {
	names := make([]string, 0, len(t))
	for n := range t {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-16s %9s %7s %9s %20s %10s\n", "class", "attempted", "failed", "p50_ms", "tail_ms", "per_s")
	for _, n := range names {
		c := t[n]
		p50 := math.NaN()
		if len(c.lat) > 0 {
			p50 = quantile(c.lat, 0.5)
		}
		tl := "-"
		if label, v, ok := tail(c.lat); ok {
			tl = fmt.Sprintf("%s=%.3f(n=%d)", label, v, len(c.lat))
		}
		rate := "-"
		if window > 0 {
			rate = fmt.Sprintf("%.1f", float64(len(c.lat))/window)
		}
		fmt.Printf("%-16s %9d %7d %9.4f %20s %10s\n", n, c.attempted, c.failed, p50, tl, rate)
		if c.firstErr != "" {
			fmt.Printf("  first error: %s\n", c.firstErr)
		}
	}
}
