package eval

import (
	"encoding/json"
	"math/rand/v2"
	"strings"
	"testing"

	"github.com/dphist/dphist"
)

// fromLeaves builds a consistent BFS tree over the given leaves.
func fromLeaves(k int, leaves []float64) []float64 {
	levels := 1
	for w := 1; w < len(leaves); w *= k {
		levels++
	}
	n := nodeCount(k, levels)
	v := make([]float64, n)
	copy(v[n-len(leaves):], leaves)
	for p := n - len(leaves) - 1; p >= 0; p-- {
		for c := p*k + 1; c <= p*k+k; c++ {
			v[p] += v[c]
		}
	}
	return v
}

func mustParse(t *testing.T, v any) *Release {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func universal(k, domain int, inferred, post []float64) map[string]any {
	return map[string]any{"version": 2, "strategy": "universal", "epsilon": 0.5,
		"k": k, "domain": domain, "noisy": inferred, "inferred": inferred, "post": post}
}

func TestConsistentTreeAnswersLeafSums(t *testing.T) {
	leaves := []float64{3, 0, 5, 1, 2, 7, 0, 0} // domain 6, two padding leaves
	tree := fromLeaves(2, leaves)
	r := mustParse(t, universal(2, 6, tree, tree))
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	spans := []Span{{A: 0, B: 6}, {A: 1, B: 4}, {A: 2, B: 2}, {A: 5, B: 6}}
	got := []float64{18, 6, 0, 7}
	if err := CheckRanges(r, spans, got); err != nil {
		t.Fatal(err)
	}
	got[1] = 7 // a corrupted answer
	if err := CheckRanges(r, spans, got); err == nil {
		t.Fatal("corrupted answer not reported")
	}
}

func TestEmptyRangeMustAnswerZero(t *testing.T) {
	tree := fromLeaves(2, []float64{1, 2, 3, 4})
	r := mustParse(t, universal(2, 4, tree, tree))
	if err := CheckRanges(r, []Span{{A: 3, B: 3}}, []float64{1e-300}); err == nil {
		t.Fatal("non-zero empty range not reported")
	}
}

func TestInconsistentTreeIsReported(t *testing.T) {
	tree := fromLeaves(2, []float64{1, 2, 3, 4})
	tree[1] += 0.5 // left child of the root no longer sums its children
	r := mustParse(t, universal(2, 4, tree, tree))
	if err := r.Check(); err == nil || !strings.Contains(err.Error(), "inconsistent") {
		t.Fatalf("inconsistent inferred tree not reported: %v", err)
	}
}

func TestInconsistentPostAnswersByDecomposition(t *testing.T) {
	leaves := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	inferred := fromLeaves(2, leaves)
	post := append([]float64(nil), inferred...)
	// Truncate the node over leaves [4,8) without touching its
	// children, as the non-negativity heuristic can leave a tree.
	post[2] = 20
	r := mustParse(t, universal(2, 8, inferred, post))
	cases := []struct {
		lo, hi int
		want   float64
	}{
		{0, 8, post[0]},           // the root covers the whole range
		{4, 8, 20},                // the truncated node itself
		{2, 8, 3 + 4 + 20},        // one inner node of each side
		{3, 7, 4 + 5 + 6 + 7},     // leaves and level-2 nodes only
		{0, 4, post[1]},           // the untouched half
		{1, 6, 2 + 3 + 4 + 5 + 6}, // crosses into the truncated half
		{5, 5, 0},                 // empty
		{0, 1, 1}, {7, 8, 8},
	}
	for _, c := range cases {
		got, _, err := r.Range(c.lo, c.hi)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("[%d,%d): %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}

func TestNonMonotoneSortedCountsAreReported(t *testing.T) {
	for _, strategy := range []string{"unattributed", "degree_sequence"} {
		ok := map[string]any{"version": 2, "strategy": strategy, "epsilon": 1.0,
			"noisy": []float64{2, 1, 3}, "inferred": []float64{1.5, 1.5, 3}, "counts": []float64{2, 2, 3}}
		if err := mustParse(t, ok).Check(); err != nil {
			t.Fatal(err)
		}
		bad := map[string]any{"version": 2, "strategy": strategy, "epsilon": 1.0,
			"noisy": []float64{2, 1, 3}, "inferred": []float64{1.5, 1.5, 3}, "counts": []float64{2, 1, 3}}
		if err := mustParse(t, bad).Check(); err == nil {
			t.Fatalf("%s: non-monotone published counts not reported", strategy)
		}
		bad["counts"], bad["inferred"] = []float64{1, 2, 3}, []float64{2, 1.5, 3}
		if err := mustParse(t, bad).Check(); err == nil {
			t.Fatalf("%s: non-monotone inferred counts not reported", strategy)
		}
	}
}

func TestQuadtreeCellsAndDecomposition(t *testing.T) {
	// A 3x3 grid pads to a 4x4 square: 16 leaves in Morton order.
	cells := [3][3]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	leaves := make([]float64, 16)
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			m := (x & 1) | (y&1)<<1 | (x>>1&1)<<2 | (y>>1&1)<<3
			leaves[m] = cells[y][x]
		}
	}
	tree := fromLeaves(4, leaves)
	grid := func(post []float64) map[string]any {
		return map[string]any{"version": 2, "strategy": "universal2d", "epsilon": 1.0,
			"width": 3, "height": 3, "noisy": tree, "inferred": tree, "post": post}
	}
	r := mustParse(t, grid(tree))
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	spans := []Span{{A: 0, B: 0, C: 3, D: 3}, {A: 1, B: 1, C: 3, D: 2}, {A: 2, B: 0, C: 2, D: 3}}
	if err := CheckRects(r, spans, []float64{45, 11, 0}); err != nil {
		t.Fatal(err)
	}
	if err := CheckRects(r, spans, []float64{45, 12, 0}); err == nil {
		t.Fatal("corrupted rectangle answer not reported")
	}
	// Truncate the top-left quadrant node: rectangles covering it
	// whole read the node, others read its children.
	post := append([]float64(nil), tree...)
	post[1] = 100
	r = mustParse(t, grid(post))
	if got, _, _ := r.Rect(0, 0, 2, 2); got != 100 {
		t.Fatalf("whole quadrant: %v, want 100", got)
	}
	if got, _, _ := r.Rect(0, 0, 1, 2); got != 1+4 {
		t.Fatalf("half quadrant: %v, want 5", got)
	}
	bad := append([]float64(nil), tree...)
	bad[0]++
	if err := mustParse(t, map[string]any{"version": 2, "strategy": "universal2d", "epsilon": 1.0,
		"width": 3, "height": 3, "noisy": bad, "inferred": bad, "post": bad}).Check(); err == nil {
		t.Fatal("inconsistent quadtree not reported")
	}
}

// TestAgreesWithProgram mints real releases of every HTTP-servable
// strategy and checks that the evaluator and the program's batch
// engine give the same answers, so a benchmark failure means the
// program changed, not that the evaluator is wrong.
func TestAgreesWithProgram(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	counts := make([]float64, 300)
	for i := range counts {
		if rng.IntN(3) == 0 {
			counts[i] = float64(rng.IntN(40))
		}
	}
	cells := make([][]float64, 12)
	for y := range cells {
		cells[y] = counts[y*20 : y*20+20]
	}
	m := dphist.MustNew(dphist.WithSeed(7), dphist.WithBranching(3))
	for _, st := range []dphist.Strategy{dphist.StrategyUniversal, dphist.StrategyLaplace,
		dphist.StrategyUnattributed, dphist.StrategyWavelet, dphist.StrategyDegreeSequence,
		dphist.StrategyUniversal2D} {
		for _, eps := range []float64{0.05, 5} {
			rel, err := m.Release(dphist.Request{Strategy: st, Counts: counts, Cells: cells, Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(rel)
			if err != nil {
				t.Fatal(err)
			}
			r, err := Parse(raw)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Check(); err != nil {
				t.Fatalf("%v: %v", st, err)
			}
			var spans []Span
			var specs []dphist.RangeSpec
			var rects []dphist.RectSpec
			for i := 0; i < 200; i++ {
				if st == dphist.StrategyUniversal2D {
					x0, x1 := ordered(rng, 20)
					y0, y1 := ordered(rng, 12)
					spans = append(spans, Span{A: x0, B: y0, C: x1, D: y1})
					rects = append(rects, dphist.RectSpec{X0: x0, Y0: y0, X1: x1, Y1: y1})
					continue
				}
				lo, hi := ordered(rng, r.Size())
				spans = append(spans, Span{A: lo, B: hi})
				specs = append(specs, dphist.RangeSpec{Lo: lo, Hi: hi})
			}
			if st == dphist.StrategyUniversal2D {
				got, err := dphist.QueryRects(rel, rects)
				if err != nil {
					t.Fatal(err)
				}
				if err := CheckRects(r, spans, got); err != nil {
					t.Fatalf("%v eps %v: %v", st, eps, err)
				}
				continue
			}
			got, err := dphist.QueryBatch(rel, specs)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckRanges(r, spans, got); err != nil {
				t.Fatalf("%v eps %v: %v", st, eps, err)
			}
		}
	}
}

func ordered(rng *rand.Rand, n int) (int, int) {
	a, b := rng.IntN(n+1), rng.IntN(n+1)
	if a > b {
		a, b = b, a
	}
	return a, b
}
