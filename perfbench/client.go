package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"
)

// newHTTPClient returns a keep-alive client holding at most conns
// connections, one per closed-loop worker.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// call is one request's outcome; body is only valid until the next
// call with the same buffer.
type call struct {
	status int
	body   []byte
}

// post sends body to url and reads the whole reply into buf.
func post(hc *http.Client, url string, body []byte, buf *bytes.Buffer) (call, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return call{}, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return call{}, err
	}
	return call{status: resp.StatusCode, body: buf.Bytes()}, nil
}

// getJSON fetches url and decodes a 200 reply into v.
func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// postJSON posts body and decodes a 200 reply into v.
func postJSON(hc *http.Client, url string, body []byte, v any) error {
	var buf bytes.Buffer
	c, err := post(hc, url, body, &buf)
	if err != nil {
		return err
	}
	if c.status != http.StatusOK {
		return fmt.Errorf("POST %s: %d %s", url, c.status, bytes.TrimSpace(c.body))
	}
	return json.Unmarshal(c.body, v)
}

// Wire shapes the benchmark reads. They are declared here, not taken
// from the program, so the benchmark reads what the wire says.

type mintReply struct {
	Name     string          `json:"name"`
	Version  int             `json:"version"`
	Strategy string          `json:"strategy"`
	Epsilon  float64         `json:"epsilon"`
	Release  json.RawMessage `json:"release"`
	Auto     json.RawMessage `json:"auto"`
}

type queryReply struct {
	Name    string    `json:"name"`
	Version int       `json:"version"`
	Answers []float64 `json:"answers"`
}

type budgetReply struct {
	Spent float64 `json:"spent"`
}

type listReply struct {
	Releases []struct {
		Name    string `json:"name"`
		Version int    `json:"version"`
	} `json:"releases"`
}

// statsReply reads the /v1/stats fields the benchmark uses. Cache is a
// pointer so that a server without an answer cache reads as nil.
type statsReply struct {
	JournalSeq  uint64 `json:"journal_seq"`
	Replication struct {
		AppliedSeq uint64 `json:"applied_seq"`
	} `json:"replication"`
	Cache *struct {
		HitRatio float64 `json:"hit_ratio"`
	} `json:"cache"`
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }
