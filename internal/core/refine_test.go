package core

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// TestFirstWeightsReportsRefineConvergence pins the refinement's
// convergence report on the two backbones at load 0.2: on Abilene the
// Frank-Wolfe refine hits its 2000-iteration cap short of the 1e-9
// tolerance and must say so; on Cernet2 it converges almost at once.
func TestFirstWeightsReportsRefineConvergence(t *testing.T) {
	cases := []struct {
		id        string
		g         *graph.Graph
		converged bool
	}{
		{"Abilene", topo.Abilene(), false},
		{"Cernet2", topo.Cernet2(), true},
	}
	for _, c := range cases {
		base, err := traffic.CanonicalMatrix(c.id, c.g)
		if err != nil {
			t.Fatalf("%s: CanonicalMatrix: %v", c.id, err)
		}
		tm, err := base.ScaledToLoad(c.g, 0.2)
		if err != nil {
			t.Fatalf("%s: ScaledToLoad: %v", c.id, err)
		}
		obj := objective.MustQBeta(1, c.g.NumLinks(), nil)
		res, err := FirstWeights(context.Background(), c.g, tm, obj, FirstWeightOptions{})
		if err != nil {
			t.Fatalf("%s: FirstWeights: %v", c.id, err)
		}
		t.Logf("%s: refine %d iterations, gap %.3g, converged %v", c.id, res.RefineIters, res.RefineGap, res.RefineConverged)
		if res.RefineConverged != c.converged {
			t.Errorf("%s: RefineConverged = %v after %d iterations at gap %.3g, want %v",
				c.id, res.RefineConverged, res.RefineIters, res.RefineGap, c.converged)
		}
		if c.converged {
			if res.RefineGap > 1e-9 {
				t.Errorf("%s: converged refine reports gap %.3g > 1e-9", c.id, res.RefineGap)
			}
		} else if res.RefineIters != 2000 || !(res.RefineGap > 1e-9) {
			t.Errorf("%s: unconverged refine reports %d iterations at gap %.3g, want the 2000 cap above 1e-9",
				c.id, res.RefineIters, res.RefineGap)
		}
	}
}

// TestFirstWeightsRefineReportWithoutRefine pins the zero report when
// refinement is off.
func TestFirstWeightsRefineReportWithoutRefine(t *testing.T) {
	g, tm := fig1Setup(t)
	obj := objective.MustQBeta(1, g.NumLinks(), nil)
	res, err := FirstWeights(context.Background(), g, tm, obj, FirstWeightOptions{MaxIters: 200, NoRefine: true})
	if err != nil {
		t.Fatalf("FirstWeights: %v", err)
	}
	if res.RefineIters != 0 || res.RefineGap != 0 || res.RefineConverged {
		t.Fatalf("NoRefine report = (%d, %v, %v), want zeros", res.RefineIters, res.RefineGap, res.RefineConverged)
	}
}
