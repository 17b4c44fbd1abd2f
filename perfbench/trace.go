package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"github.com/dphist/dphist/perfbench/inputs"
)

// traceLayers replaces the end-to-end metrics of a traced run with the
// per-layer ones. The layers reached over HTTP are timed here, against
// the live deployment: qcache from /v1/stats, cluster as the same
// requests sent through dphist-router and directly, and http as the
// measured 1-D query median minus the in-process handler time. The
// in-process layers are timed by perfbench-layers on this workload's
// own inputs, after the program's processes are stopped so the two do
// not share the CPUs.
func (b *bench) traceLayers(d *deployment, serving *proc) error {
	b.metrics = map[string]metric{}
	var st statsReply
	if err := getJSON(b.hc, serving.url+"/v1/stats", &st); err != nil {
		return err
	}
	ratio := 0.0 // a server without an answer cache hits nothing
	if st.Cache != nil {
		ratio = st.Cache.HitRatio
	}
	b.put("qcache.hit_ratio", "ratio", ratio)

	router := d.router
	if router == nil {
		var err error
		router, err = launch("router", filepath.Join(b.bin, "dphist-router"), nil, b.dir, "-shard", serving.url)
		if err != nil {
			return err
		}
		defer router.kill()
	}
	proxy, err := b.proxyOverhead(serving, router, inputs.Probes(b.seed, d.releases))
	if err != nil {
		return err
	}
	b.put("cluster.proxy_us", "us", proxy)
	queryP50 := median(b.traffic.get("query").lat)
	d.kill()

	cmd := exec.Command(filepath.Join(b.bin, "perfbench-layers"),
		"-workload", b.workload, "-seed", fmt.Sprint(b.seed), "-dir", filepath.Join(b.dir, "layers"))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("perfbench-layers: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	layers := map[string]metric{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &layers); err != nil {
		return fmt.Errorf("perfbench-layers output: %w", err)
	}
	for name, m := range layers {
		b.metrics[name] = m
	}
	b.put("http.query_overhead_us", "us", queryP50*1e3-layers["server.query_us"].Value)
	return nil
}

// proxyOverhead sends the same batches directly to the serving process
// and through the router, one at a time and alternating, and returns
// the difference of the median latencies in microseconds.
func (b *bench) proxyOverhead(direct, router *proc, batches []inputs.Batch) (float64, error) {
	hc := newHTTPClient(1)
	var buf bytes.Buffer
	var viaDirect, viaRouter []float64
	for round := 0; round < 40; round++ {
		for _, batch := range batches {
			for _, target := range []*proc{direct, router} {
				start := time.Now()
				c, err := post(hc, target.url+batch.Path(), batch.Body, &buf)
				us := float64(time.Since(start).Nanoseconds()) / 1e3
				b.setup.record("trace-proxy", us/1e3, 1, statusErr(c, err), true)
				if err := statusErr(c, err); err != nil {
					return 0, err
				}
				if target == direct {
					viaDirect = append(viaDirect, us)
				} else {
					viaRouter = append(viaRouter, us)
				}
			}
		}
	}
	return median(viaRouter) - median(viaDirect), nil
}
