package mcf

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/traffic"
)

// workspaces recycles per-worker graph scratch across all-or-nothing
// calls; every parallel destination worker draws its own arena, so no
// shortest-path state is ever shared or reallocated in steady state.
var workspaces graph.WorkspacePool

// AllOrNothing routes every demand entirely along one shortest path under
// the given link weights (ties broken toward the smallest link ID, so the
// assignment is deterministic). This is the Frank-Wolfe direction-finding
// step and also the paper's Route_t subproblem (Eq. 15), whose optimum is
// always attained on shortest paths.
func AllOrNothing(g *graph.Graph, tm *traffic.Matrix, weights []float64) (*Flow, error) {
	return AllOrNothingInto(g, tm, weights, nil)
}

// AllOrNothingInto is AllOrNothing with an optional reusable output flow
// (it must have been created for the same graph and destinations; nil
// allocates a fresh one). Iterative algorithms call this once per
// iteration, so reuse removes the dominant allocation: with a reused
// flow and the worker pool idle, a call allocates nothing.
//
// The weight vector is validated once per call, not once per
// destination. Destinations are routed concurrently: each commodity's
// assignment depends only on the shared weights and writes only its own
// per-destination vector, so the result is bit-identical to the
// sequential loop for any worker count (Total is rebuilt in destination
// order).
func AllOrNothingInto(g *graph.Graph, tm *traffic.Matrix, weights []float64, flow *Flow) (*Flow, error) {
	c := aonCalls.Get().(*aonCall)
	defer c.release()
	c.dests = tm.AppendDestinations(c.dests[:0])
	if flow == nil {
		flow = NewFlow(g, c.dests)
	} else {
		for _, t := range c.dests {
			if _, ok := flow.PerDest[t]; !ok {
				return nil, fmt.Errorf("mcf: reused flow lacks commodity %d", t)
			}
		}
	}
	if len(c.dests) > 0 {
		if err := graph.CheckWeights(g, weights); err != nil {
			return nil, err
		}
	}
	c.g, c.tm, c.weights, c.flow = g, tm, weights, flow
	c.errs = append(c.errs[:0], make([]error, len(c.dests))...)
	par.Do(len(c.dests), c.run)
	// Scanning in index order keeps the reported failure independent
	// of scheduling order.
	for _, err := range c.errs {
		if err != nil {
			return nil, err
		}
	}
	flow.RecomputeTotal()
	return flow, nil
}

// aonCall carries one AllOrNothingInto call's shared state to its
// per-destination workers. Calls are pooled, and run is bound once per
// pooled value, so handing the loop body to par.Do allocates nothing.
type aonCall struct {
	g       *graph.Graph
	tm      *traffic.Matrix
	weights []float64
	flow    *Flow
	dests   []int
	errs    []error
	run     func(i int)
}

var aonCalls = sync.Pool{New: func() any {
	c := &aonCall{}
	c.run = c.routeDestination
	return c
}}

func (c *aonCall) routeDestination(i int) {
	ws := workspaces.Get(c.g)
	t := c.dests[i]
	c.errs[i] = aonDestination(c.g, c.tm, c.weights, t, c.flow.PerDest[t], ws)
	workspaces.Put(ws)
}

// release drops the call's references to caller data and recycles it.
func (c *aonCall) release() {
	c.g, c.tm, c.weights, c.flow = nil, nil, nil, nil
	clear(c.errs)
	aonCalls.Put(c)
}

// aonDestination routes commodity t's demand on shortest paths under
// weights, overwriting ft (the commodity's per-link vector). All scratch
// comes from ws, so steady-state calls allocate only on error paths.
// The caller has validated weights with graph.CheckWeights.
func aonDestination(g *graph.Graph, tm *traffic.Matrix, weights []float64, t int, ft []float64, ws *graph.Workspace) error {
	sp, err := ws.DijkstraToChecked(g, weights, t)
	if err != nil {
		return err
	}
	for s := 0; s < g.NumNodes(); s++ {
		if tm.At(s, t) > 0 && sp.Dist[s] == graph.Unreachable {
			return fmt.Errorf("%w: no path from %d to %d", ErrInfeasible, s, t)
		}
	}
	// next[u] is the chosen shortest-path out-link of u toward t.
	next := ws.NextBuffer(g)
	for u := range next {
		next[u] = -1
	}
	for u := 0; u < g.NumNodes(); u++ {
		if u == t || sp.Dist[u] == graph.Unreachable {
			continue
		}
		for _, id := range g.OutLinks(u) {
			v := g.Link(id).To
			if sp.Dist[v] == graph.Unreachable {
				continue
			}
			if sp.Dist[v]+weights[id] <= sp.Dist[u]+1e-12 {
				next[u] = id
				break // smallest link ID wins
			}
		}
		if next[u] < 0 && tm.At(u, t) > 0 {
			return fmt.Errorf("%w: no path from %d to %d", ErrInfeasible, u, t)
		}
	}
	// Accumulate demand down the chosen next-hop chains in decreasing
	// distance order so each node is processed after all its inflow.
	order := ws.NodesByDistDesc(sp)
	acc := ws.AccBuffer(g)
	for i := range ft {
		ft[i] = 0
	}
	for _, u := range order {
		acc[u] = 0
	}
	for _, u := range order {
		if u == t {
			continue
		}
		amount := acc[u] + tm.At(u, t)
		if amount == 0 {
			continue
		}
		id := next[u]
		if id < 0 {
			return fmt.Errorf("%w: stranded flow %v at node %d for destination %d", ErrInfeasible, amount, u, t)
		}
		ft[id] += amount
		acc[g.Link(id).To] += amount
	}
	return nil
}
