package spef

import (
	"context"
	"fmt"
	"sync"
)

// weightCache backs RunOptions.ReuseWeights: one entry per (topology,
// failed link, router parameterization) group of cells. The entry's
// reference cell — the group's lowest-index cell, which under Grid
// expansion is the first load factor and, for temporal sequences, the
// first demand step — is optimized exactly once (sync.Once, so
// concurrent workers wait rather than duplicate the work), the
// optimized weights are extracted into a fixed-weight router, and every
// cell of the group (the reference included) re-simulates that router
// against its own load-scaled, step-specific demands. Keying the reference by index
// keeps the cached weights — and therefore every result — independent
// of worker count and completion order.
type weightCache struct {
	entries map[string]*weightEntry
}

type weightEntry struct {
	once sync.Once
	ref  Scenario
	// fixed is the extracted fixed-weight router; nil when the
	// reference router does not support extraction (cells then fall
	// back to optimizing individually).
	fixed Router
	err   error
}

// weightKey groups cells that share optimized weights: same topology,
// same failure variant, same router parameterization (reuseKey — the
// display name drops parameters such as a search seed, so two routers
// can share a name yet optimize different weights). Load and demand
// step do not participate — reusing weights across the load and time
// axes is the cache's whole point. ok is false for cells whose router
// has no reusable weights.
func weightKey(s Scenario) (key string, ok bool) {
	wr, isReuser := s.Router.(weightReuser)
	if !isReuser || !wr.reusable() {
		return "", false
	}
	return s.Topology + "\x1f" + s.FailedLink + "\x1f" + wr.reuseKey(), true
}

// newWeightCache indexes the scenarios that can share weights. Cells
// whose router is not an optimizing, weight-extractable scheme
// (reusable() false: OSPF, Optimal, fixed-weight variants) get no
// entry and run unchanged — in particular, no reference optimization
// is ever spent on a group whose extraction would fail.
func newWeightCache(scenarios []Scenario) *weightCache {
	c := &weightCache{entries: make(map[string]*weightEntry)}
	for _, s := range scenarios {
		k, ok := weightKey(s)
		if !ok {
			continue
		}
		if _, ok := c.entries[k]; !ok {
			// Scenarios arrive in expansion order, so the first cell
			// seen is the group's lowest-index (reference) cell.
			c.entries[k] = &weightEntry{ref: s}
		}
	}
	return c
}

// router resolves the router scenario s should run with: the group's
// cached fixed-weight router, computed on first demand, or the cell's
// own router when the group has no reusable weights. A nil cache (the
// default, ReuseWeights off) is a no-op.
func (c *weightCache) router(ctx context.Context, s Scenario) (Router, error) {
	if c == nil {
		return s.Router, nil
	}
	k, ok := weightKey(s)
	if !ok {
		return s.Router, nil
	}
	e, ok := c.entries[k]
	if !ok {
		return s.Router, nil
	}
	e.once.Do(func() {
		routes, err := e.ref.Router.Routes(ctx, e.ref.Network, e.ref.Demands)
		if err != nil {
			e.err = fmt.Errorf("spef: weight reuse: optimizing reference cell %q: %w", e.ref.Name, err)
			return
		}
		if fixed, ok := e.ref.Router.(weightReuser).reuseFrom(routes); ok {
			e.fixed = fixed
		}
	})
	if e.err != nil {
		return nil, e.err
	}
	if e.fixed == nil {
		return s.Router, nil
	}
	return e.fixed, nil
}
