package main

import (
	"fmt"
	"math"

	spef "repro"
	"repro/internal/graph"
	"repro/internal/traffic"
)

// layerInputs rebuilds a public network and demand set as the internal
// graph and traffic matrix the layer packages take. Links are added in
// ID order and every positive volume is set once, so the layer calls
// see bit-identical inputs to the ones the routers see.
func layerInputs(n *spef.Network, d *spef.Demands) (*graph.Graph, *traffic.Matrix, error) {
	g := graph.New(0)
	for v := 0; v < n.NumNodes(); v++ {
		g.AddNode(n.NodeName(v))
	}
	for id := 0; id < n.NumLinks(); id++ {
		from, to, c := n.Link(id)
		if _, err := g.AddLink(from, to, c); err != nil {
			return nil, nil, err
		}
	}
	tm := traffic.NewMatrix(n.NumNodes())
	for s := 0; s < n.NumNodes(); s++ {
		for t := 0; t < n.NumNodes(); t++ {
			if v := d.At(s, t); v > 0 {
				if err := tm.Set(s, t, v); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return g, tm, nil
}

// conserved checks the aggregate flow conservation of a per-link flow
// vector: at every node, inflow minus outflow equals the demand that
// terminates there minus the demand that originates there.
func conserved(n *spef.Network, d *spef.Demands, flow []float64) error {
	if len(flow) != n.NumLinks() {
		return fmt.Errorf("flow covers %d links, network has %d", len(flow), n.NumLinks())
	}
	net := make([]float64, n.NumNodes())
	for id, f := range flow {
		if f < 0 || math.IsNaN(f) {
			return fmt.Errorf("link %d carries %v", id, f)
		}
		from, to, _ := n.Link(id)
		net[from] -= f
		net[to] += f
	}
	tol := 1e-6 * math.Max(d.Total(), 1)
	for v := range net {
		var want float64
		for u := 0; u < n.NumNodes(); u++ {
			want += d.At(u, v) - d.At(v, u)
		}
		if math.Abs(net[v]-want) > tol {
			return fmt.Errorf("node %d: net inflow %.9g, demand balance %.9g", v, net[v], want)
		}
	}
	return nil
}

// sameBits reports the first index where two vectors differ bitwise.
func sameBits(what string, a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: lengths %d and %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("%s: element %d is %v, want %v", what, i, a[i], b[i])
		}
	}
	return nil
}

// within reports whether got is within rel of want (relative to want).
func within(got, want, rel float64) bool {
	return math.Abs(got-want) <= rel*math.Abs(want)
}
