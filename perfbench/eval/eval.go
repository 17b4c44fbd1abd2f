// Package eval is the benchmark's independent evaluator. It re-derives
// every answer the server gives from the vectors the server published
// in its mint responses, using code that shares nothing with the
// program under test: its own JSON views of the release payloads, its
// own tree indexing, its own Morton order and its own decompositions.
//
// Where a published tree is consistent (every parent equals the sum of
// its children) an answer is a plain sum of leaves or cells. Where it is
// not — the non-negativity heuristic truncates subtrees — an answer is
// the sum over the canonical node decomposition, found by plain
// recursion from the root. The flat strategies answer by plain sums.
//
// Check verifies the paper's properties on a release: the inferred tree
// of H-bar is consistent, and the published counts of S-bar are
// non-decreasing.
package eval

import (
	"encoding/json"
	"fmt"
	"math"
)

// Release is the evaluator's view of one published release: exactly the
// fields of the "release" object in a mint response.
type Release struct {
	Version  int       `json:"version"`
	Strategy string    `json:"strategy"`
	Epsilon  float64   `json:"epsilon"`
	K        int       `json:"k"`
	Domain   int       `json:"domain"`
	Width    int       `json:"width"`
	Height   int       `json:"height"`
	Noisy    []float64 `json:"noisy"`
	Inferred []float64 `json:"inferred"`
	Post     []float64 `json:"post"`
	Counts   []float64 `json:"counts"`

	// Derived by Parse.
	levels   int  // tree height in nodes
	leaves   int  // padded leaf count
	side     int  // padded square side for universal2d
	postCons bool // Post is consistent: answer by leaf or cell sums
}

// Parse decodes a release payload and validates its shape. It does not
// check the paper's properties; call Check for that.
func Parse(raw []byte) (*Release, error) {
	var r Release
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("eval: decode release: %w", err)
	}
	if r.Version != 2 {
		return nil, fmt.Errorf("eval: release wire version %d, want 2", r.Version)
	}
	if !(r.Epsilon > 0) || math.IsInf(r.Epsilon, 0) {
		return nil, fmt.Errorf("eval: release epsilon %v", r.Epsilon)
	}
	switch r.Strategy {
	case "universal":
		if r.K < 2 || r.Domain < 1 {
			return nil, fmt.Errorf("eval: universal k=%d domain=%d", r.K, r.Domain)
		}
		r.leaves, r.levels = 1, 1
		for r.leaves < r.Domain {
			r.leaves *= r.K
			r.levels++
		}
		if err := r.checkTreeLens(nodeCount(r.K, r.levels)); err != nil {
			return nil, err
		}
	case "universal2d":
		if r.Width < 1 || r.Height < 1 {
			return nil, fmt.Errorf("eval: universal2d %dx%d", r.Width, r.Height)
		}
		r.side = 1
		for r.side < r.Width || r.side < r.Height {
			r.side *= 2
		}
		r.K, r.leaves, r.levels = 4, r.side*r.side, 1
		for n := 1; n < r.leaves; n *= 4 {
			r.levels++
		}
		if err := r.checkTreeLens(nodeCount(4, r.levels)); err != nil {
			return nil, err
		}
	case "laplace", "wavelet":
		if len(r.Counts) == 0 {
			return nil, fmt.Errorf("eval: %s release has no counts", r.Strategy)
		}
	case "unattributed", "degree_sequence":
		if len(r.Counts) == 0 || len(r.Noisy) != len(r.Counts) || len(r.Inferred) != len(r.Counts) {
			return nil, fmt.Errorf("eval: %s release vector lengths %d/%d/%d",
				r.Strategy, len(r.Noisy), len(r.Inferred), len(r.Counts))
		}
	default:
		return nil, fmt.Errorf("eval: strategy %q has no evaluator", r.Strategy)
	}
	if r.Post != nil {
		r.postCons = r.treeConsistent(r.Post) == nil
	}
	return &r, nil
}

func nodeCount(k, levels int) int {
	n, width := 0, 1
	for i := 0; i < levels; i++ {
		n += width
		width *= k
	}
	return n
}

func (r *Release) checkTreeLens(n int) error {
	if len(r.Noisy) != n || len(r.Inferred) != n || len(r.Post) != n {
		return fmt.Errorf("eval: %s release has %d/%d/%d node values, tree has %d",
			r.Strategy, len(r.Noisy), len(r.Inferred), len(r.Post), n)
	}
	return nil
}

// tol is the tolerance for comparing a float sum against a value of the
// given magnitude: inference is closed-form floating-point arithmetic.
func tol(scale float64) float64 { return 1e-9 * (1 + scale) }

// treeConsistent reports the first node of a BFS tree vector whose
// value differs from the sum of its children.
func (r *Release) treeConsistent(v []float64) error {
	internal := len(v) - r.leaves
	for p := 0; p < internal; p++ {
		sum, abs := 0.0, math.Abs(v[p])
		for c := p*r.K + 1; c <= p*r.K+r.K; c++ {
			sum += v[c]
			abs += math.Abs(v[c])
		}
		if math.Abs(v[p]-sum) > tol(abs) {
			return fmt.Errorf("node %d is %v but its children sum to %v", p, v[p], sum)
		}
	}
	return nil
}

// Size is the 1-D index space ranges are asked over.
func (r *Release) Size() int {
	switch r.Strategy {
	case "universal":
		return r.Domain
	}
	return len(r.Counts)
}

// Check verifies the paper's properties on the published vectors:
// H-bar's inferred tree (1-D and quadtree) has parent == sum of
// children, and S-bar's inferred and published counts are
// non-decreasing.
func (r *Release) Check() error {
	switch r.Strategy {
	case "universal", "universal2d":
		if err := r.treeConsistent(r.Inferred); err != nil {
			return fmt.Errorf("eval: %s inferred tree is inconsistent: %v", r.Strategy, err)
		}
	case "unattributed", "degree_sequence":
		for _, v := range [][]float64{r.Inferred, r.Counts} {
			for i := 1; i < len(v); i++ {
				if v[i] < v[i-1] {
					return fmt.Errorf("eval: %s counts decrease at rank %d: %v > %v",
						r.Strategy, i, v[i-1], v[i])
				}
			}
		}
	}
	return nil
}

// Range returns the expected answer to the half-open range [lo, hi)
// and the sum of the absolute values it added, for the comparison
// tolerance.
func (r *Release) Range(lo, hi int) (want, scale float64, err error) {
	if r.Strategy == "universal2d" {
		return 0, 0, fmt.Errorf("eval: range asked of a universal2d release")
	}
	if lo < 0 || lo > hi || hi > r.Size() {
		return 0, 0, fmt.Errorf("eval: range [%d,%d) outside [0,%d]", lo, hi, r.Size())
	}
	switch r.Strategy {
	case "universal":
		start := len(r.Post) - r.leaves
		if r.postCons {
			return sumAbs(r.Post[start+lo : start+hi])
		}
		want, scale = r.decompose(0, 0, r.leaves, lo, hi)
		return want, scale, nil
	}
	return sumAbs(r.Counts[lo:hi])
}

func sumAbs(v []float64) (sum, abs float64, err error) {
	for _, x := range v {
		sum += x
		abs += math.Abs(x)
	}
	return sum, abs, nil
}

// decompose sums the canonical decomposition of [lo, hi) under node v,
// which covers leaves [a, b): a node inside the range contributes its
// value, a node outside contributes nothing, any other node recurses
// into its k children.
func (r *Release) decompose(v, a, b, lo, hi int) (float64, float64) {
	if hi <= a || b <= lo {
		return 0, 0
	}
	if lo <= a && b <= hi {
		return r.Post[v], math.Abs(r.Post[v])
	}
	step := (b - a) / r.K
	sum, abs := 0.0, 0.0
	for c := 0; c < r.K; c++ {
		s, m := r.decompose(v*r.K+1+c, a+c*step, a+(c+1)*step, lo, hi)
		sum += s
		abs += m
	}
	return sum, abs
}

// cell returns the published count of cell (x, y): the quadtree leaf at
// the cell's Morton position, x bits in the even places.
func (r *Release) cell(x, y int) float64 {
	m := 0
	for bit := 0; 1<<bit < r.side; bit++ {
		m |= (x >> bit & 1) << (2 * bit)
		m |= (y >> bit & 1) << (2*bit + 1)
	}
	return r.Post[len(r.Post)-r.leaves+m]
}

// Rect returns the expected answer to the half-open rectangle
// [x0, x1) x [y0, y1) of a universal2d release.
func (r *Release) Rect(x0, y0, x1, y1 int) (want, scale float64, err error) {
	if r.Strategy != "universal2d" {
		return 0, 0, fmt.Errorf("eval: rectangle asked of a %s release", r.Strategy)
	}
	if x0 < 0 || y0 < 0 || x0 > x1 || y0 > y1 || x1 > r.Width || y1 > r.Height {
		return 0, 0, fmt.Errorf("eval: rectangle [%d,%d)x[%d,%d) outside %dx%d",
			x0, x1, y0, y1, r.Width, r.Height)
	}
	if r.postCons {
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				v := r.cell(x, y)
				want += v
				scale += math.Abs(v)
			}
		}
		return want, scale, nil
	}
	want, scale = r.quad(0, 0, 0, r.side, x0, y0, x1, y1)
	return want, scale, nil
}

// quad sums the canonical quadtree decomposition of a rectangle under
// node v, whose square has corner (x, y) and the given side. Child c
// covers the quadrant with x offset c&1 and y offset c>>1.
func (r *Release) quad(v, x, y, side, x0, y0, x1, y1 int) (float64, float64) {
	if x+side <= x0 || x1 <= x || y+side <= y0 || y1 <= y {
		return 0, 0
	}
	if x0 <= x && x+side <= x1 && y0 <= y && y+side <= y1 {
		return r.Post[v], math.Abs(r.Post[v])
	}
	half := side / 2
	sum, abs := 0.0, 0.0
	for c := 0; c < 4; c++ {
		s, m := r.quad(4*v+1+c, x+(c&1)*half, y+(c>>1)*half, half, x0, y0, x1, y1)
		sum += s
		abs += m
	}
	return sum, abs
}

// Span is one query of a batch: a range [A, B) for 1-D batches, or a
// rectangle [A, C) x [B, D) for 2-D ones.
type Span struct{ A, B, C, D int }

// CheckRanges compares a 1-D batch's answers against the evaluator.
// Every empty range must answer exactly 0.
func CheckRanges(r *Release, spans []Span, got []float64) error {
	if len(got) != len(spans) {
		return fmt.Errorf("eval: %d answers for %d ranges", len(got), len(spans))
	}
	for i, s := range spans {
		want, scale, err := r.Range(s.A, s.B)
		if err != nil {
			return err
		}
		if err := compare(want, scale, got[i], s.A == s.B); err != nil {
			return fmt.Errorf("eval: %s range [%d,%d): %w", r.Strategy, s.A, s.B, err)
		}
	}
	return nil
}

// CheckRects compares a 2-D batch's answers against the evaluator.
// Every empty rectangle must answer exactly 0.
func CheckRects(r *Release, spans []Span, got []float64) error {
	if len(got) != len(spans) {
		return fmt.Errorf("eval: %d answers for %d rectangles", len(got), len(spans))
	}
	for i, s := range spans {
		want, scale, err := r.Rect(s.A, s.B, s.C, s.D)
		if err != nil {
			return err
		}
		if err := compare(want, scale, got[i], s.A == s.C || s.B == s.D); err != nil {
			return fmt.Errorf("eval: rectangle [%d,%d)x[%d,%d): %w", s.A, s.C, s.B, s.D, err)
		}
	}
	return nil
}

func compare(want, scale, got float64, empty bool) error {
	if empty {
		if got != 0 {
			return fmt.Errorf("empty query answered %v, want 0", got)
		}
		return nil
	}
	if math.IsNaN(got) || math.Abs(got-want) > tol(scale) {
		return fmt.Errorf("answered %v, evaluator says %v", got, want)
	}
	return nil
}
