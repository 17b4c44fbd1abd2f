package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one program process the benchmark started. Every child runs
// in its own process group, so kill takes down anything it forked too.
type proc struct {
	name string
	url  string // base URL of its HTTP listener
	cmd  *exec.Cmd
	log  string
	done chan struct{}
}

var (
	procsMu sync.Mutex
	procs   = map[*proc]bool{}
)

// freeAddr reserves an ephemeral loopback port and releases it for the
// child to bind.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// launch starts bin with args plus -addr on a fresh ephemeral port,
// feeding stdin, and waits until GET /healthz answers 200. A child
// that exits before it is ready (a port taken in the meantime) is
// retried on another port.
func launch(name, bin string, stdin []byte, logDir string, args ...string) (*proc, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		p := &proc{
			name: name,
			url:  "http://" + addr,
			log:  filepath.Join(logDir, fmt.Sprintf("%s-%d.log", name, time.Now().UnixNano())),
			done: make(chan struct{}),
		}
		logf, err := os.Create(p.log)
		if err != nil {
			return nil, err
		}
		p.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
		p.cmd.Stdin = bytes.NewReader(stdin)
		p.cmd.Stdout, p.cmd.Stderr = logf, logf
		p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
		procsMu.Lock()
		err = p.cmd.Start()
		if err == nil {
			procs[p] = true
		}
		procsMu.Unlock()
		logf.Close()
		if err != nil {
			return nil, fmt.Errorf("start %s: %w", name, err)
		}
		go func() { _ = p.cmd.Wait(); close(p.done) }()
		if lastErr = p.waitReady(60 * time.Second); lastErr == nil {
			return p, nil
		}
		p.kill()
	}
	return nil, lastErr
}

// waitReady polls /healthz until it answers 200, the process exits, or
// the timeout passes.
func (p *proc) waitReady(timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before it was ready: %s", p.name, p.logTail())
		default:
		}
		if resp, err := hc.Get(p.url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after %v: %s", p.name, timeout, p.logTail())
}

// kill sends SIGKILL to the process group and waits for the process.
func (p *proc) kill() {
	if p == nil {
		return
	}
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	<-p.done
	procsMu.Lock()
	delete(procs, p)
	procsMu.Unlock()
}

// killAll stops every process still running.
func killAll() {
	procsMu.Lock()
	live := make([]*proc, 0, len(procs))
	for p := range procs {
		live = append(live, p)
	}
	procsMu.Unlock()
	for _, p := range live {
		p.kill()
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func (p *proc) logTail() string {
	data, _ := os.ReadFile(p.log)
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return strings.TrimSpace(string(data))
}
