package bench

import (
	"context"
	"fmt"
	"time"

	spef "repro"
	"repro/internal/par"
)

// robustSampleBench measures the failure-sampling mode of the robust
// local search on CERNET2 through the public router: an exhaustive
// OSPF-LS-robust optimization (every routable single duplex failure
// scored per candidate) against the k-sampled configuration. Both
// measurements force the worker pool sequential, so the speedup is the
// pure exhaustive/sampled scoring ratio — machine-portable and gated by
// Check. The parity entry pins the mode's contract: a sample size at or
// above the variant count is the identity selection, bitwise.
func robustSampleBench(budget time.Duration) ([]Kernel, []Parity, error) {
	topo, err := spef.ResolveTopology("cernet2")
	if err != nil {
		return nil, nil, err
	}
	n, d := topo.Network, topo.Demands
	if d == nil {
		return nil, nil, fmt.Errorf("bench: cernet2 has no default demands")
	}
	d, err = d.ScaledToLoad(n, 0.2)
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	run := func(opts spef.LocalSearchOptions) []float64 {
		routes, err := spef.OSPFLocalSearch(opts).Routes(ctx, n, d)
		if err != nil {
			panic(err)
		}
		return routes.ECMPWeights()
	}
	base := spef.LocalSearchOptions{MaxEvals: 48, Seed: 1, Robust: true}
	sampled := base
	sampled.SampleFailures = 3
	sampled.SampleSeed = 5

	prev := par.SetExtraWorkers(0)
	kernels := []Kernel{compare("cernet2/robustsample", "exhaustive", "sampled", true, budget,
		func() { run(base) }, func() { run(sampled) })}
	par.SetExtraWorkers(prev)

	// Identity-selection parity: k far above the variant count must
	// reproduce the exhaustive trajectory bit for bit, whatever the
	// sample seed.
	exhaustive := run(base)
	identity := base
	identity.SampleFailures = 1 << 20
	identity.SampleSeed = 99
	withK := run(identity)
	same := len(exhaustive) == len(withK)
	if same {
		for i := range exhaustive {
			if exhaustive[i] != withK[i] {
				same = false
				break
			}
		}
	}
	parity := []Parity{{
		Name:         "cernet2/robustsample-vs-exhaustive",
		Detail:       "OSPF-LS-robust optimized weights, sample size >= variant count vs exhaustive scoring",
		BitIdentical: same,
	}}
	return kernels, parity, nil
}
