package mcf

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/par"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// aonSetup is a 20-node random instance with a demand into every node.
func aonSetup(t *testing.T) (*graph.Graph, *traffic.Matrix, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	g, err := topo.Random(9, 20, 70)
	if err != nil {
		t.Fatal(err)
	}
	tm := traffic.NewMatrix(g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		if err := tm.Set((u+1)%g.NumNodes(), u, 0.5+rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	w := make([]float64, g.NumLinks())
	for i := range w {
		w[i] = float64(1 + rng.Intn(4)) // integer weights: many ties
	}
	return g, tm, w
}

// TestAllOrNothingIntoSteadyStateZeroAllocs pins the reused-flow form
// at zero allocations once warm (with the worker pool idle; the
// parallel fan-out's goroutine bookkeeping is par.Do's own).
func TestAllOrNothingIntoSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool discards items at random, so pooled scratch is reallocated")
	}
	g, tm, w := aonSetup(t)
	prev := par.SetExtraWorkers(0)
	defer par.SetExtraWorkers(prev)
	flow := NewFlow(g, tm.Destinations())
	got := testing.AllocsPerRun(50, func() {
		if _, err := AllOrNothingInto(g, tm, w, flow); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("AllOrNothingInto allocates %v objects/op in steady state, want 0", got)
	}
}

// TestAllOrNothingIntoReuseBitIdentical proves a reused output flow —
// including one left holding another weight vector's assignment — ends
// bitwise equal to a fresh one, sequential or parallel.
func TestAllOrNothingIntoReuseBitIdentical(t *testing.T) {
	g, tm, w := aonSetup(t)
	other := make([]float64, len(w))
	for i := range other {
		other[i] = w[len(w)-1-i]
	}
	for _, extra := range []int{0, 3} {
		prev := par.SetExtraWorkers(extra)
		want, err := AllOrNothing(g, tm, w)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := AllOrNothing(g, tm, other)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AllOrNothingInto(g, tm, w, reused)
		par.SetExtraWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		for e := range want.Total {
			if got.Total[e] != want.Total[e] {
				t.Fatalf("extra=%d: link %d total %v != %v", extra, e, got.Total[e], want.Total[e])
			}
		}
		for dst, v := range want.PerDest {
			for e := range v {
				if got.PerDest[dst][e] != v[e] {
					t.Fatalf("extra=%d: commodity %d link %d: %v != %v", extra, dst, e, got.PerDest[dst][e], v[e])
				}
			}
		}
	}
}

// TestAllOrNothingIntoChecksWeightsOnce pins the once-per-call weight
// validation: the error is exactly graph.CheckWeights', and a matrix
// without destinations never looks at the weights.
func TestAllOrNothingIntoChecksWeightsOnce(t *testing.T) {
	g, tm, w := aonSetup(t)
	bad := append([]float64(nil), w...)
	bad[3] = -1
	_, err := AllOrNothing(g, tm, bad)
	if !errors.Is(err, graph.ErrBadWeights) {
		t.Fatalf("err = %v, want ErrBadWeights", err)
	}
	if want := graph.CheckWeights(g, bad); err.Error() != want.Error() {
		t.Fatalf("err = %q, want %q", err, want)
	}
	if _, err := AllOrNothing(g, tm, w[:2]); !errors.Is(err, graph.ErrBadWeights) {
		t.Fatalf("short vector: err = %v, want ErrBadWeights", err)
	}
	empty := traffic.NewMatrix(g.NumNodes())
	flow, err := AllOrNothing(g, empty, bad)
	if err != nil {
		t.Fatalf("empty matrix: %v", err)
	}
	for e, x := range flow.Total {
		if x != 0 {
			t.Fatalf("empty matrix routes %v on link %d", x, e)
		}
	}
}

// TestFrankWolfeReportsConvergence pins FWResult.Converged: true when
// the gap test stopped the solver, false when the iteration cap did.
func TestFrankWolfeReportsConvergence(t *testing.T) {
	g, tm := fig1TM(t)
	o := objective.MustQBeta(1, g.NumLinks(), nil)
	r, err := FrankWolfe(t.Context(), g, tm, o, FWOptions{MaxIters: 20000, RelGap: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged || r.Gap > 1e-6 || r.Iters >= 20000 {
		t.Fatalf("loose tolerance: Converged=%v gap=%v iters=%d, want converged within 1e-6", r.Converged, r.Gap, r.Iters)
	}
	ab := topo.Abilene()
	base, err := traffic.CanonicalMatrix("Abilene", ab)
	if err != nil {
		t.Fatal(err)
	}
	abTM, err := base.ScaledToLoad(ab, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	abObj := objective.MustQBeta(1, ab.NumLinks(), nil)
	r, err = FrankWolfeContinuation(t.Context(), ab, abTM, abObj, FWOptions{MaxIters: 3, RelGap: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if r.Converged || r.Iters != 3 {
		t.Fatalf("capped: Converged=%v iters=%d gap=%v, want unconverged after 3", r.Converged, r.Iters, r.Gap)
	}
}
