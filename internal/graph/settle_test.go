package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// tieGraph builds a random graph whose weights are drawn to make ties:
// unit and small-integer weights (many equal distances), zero weights
// and weights so small that adding them to a distance of order one
// rounds away (absorbed ties), plus nodes with no links at all, so some
// nodes are unreachable.
func tieGraph(rng *rand.Rand) (*Graph, []float64) {
	n := 2 + rng.Intn(20)
	g := New(n)
	isolated := rng.Intn(3) // the last few nodes get no links
	live := n - isolated
	if live < 2 {
		live = 2
	}
	var w []float64
	weight := func() float64 {
		switch r := rng.Intn(10); {
		case r < 4:
			return 1
		case r < 7:
			return float64(1 + rng.Intn(3))
		case r < 9:
			return 0
		default:
			return 1e-18
		}
	}
	for i := 0; i < 3*live; i++ {
		u, v := rng.Intn(live), rng.Intn(live)
		if u == v {
			continue
		}
		if _, err := g.AddLink(u, v, 1); err == nil {
			w = append(w, weight())
		}
	}
	return g, w
}

// TestSettleOrderMatchesSort is the settle-order contract: on random
// graphs full of ties, zero-length links and unreachable nodes, the
// order derived from Dijkstra's settle order equals the heapsorted
// decreasing-distance, increasing-ID order exactly — through
// NodesByDistDesc, the workspace DAG builders and the package-level
// ones. Both shapes of settle order occur: ones whose plain reversal is
// already the answer, and ones whose equal-distance runs must be put
// in ID order.
func TestSettleOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ws := &Workspace{}
	var plain, tieRuns int
	for trial := 0; trial < 2000; trial++ {
		g, w := tieGraph(rng)
		ws.Reset(g)
		dst := rng.Intn(g.NumNodes())
		sp, err := ws.DijkstraTo(g, w, dst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := appendNodesDescending(nil, sp.Dist)
		if !settledDescending(slices.Clone(ws.settled), sp.Dist) {
			t.Fatalf("trial %d: settle order %v not nondecreasing in distance %v", trial, ws.settled, sp.Dist)
		}
		rev := slices.Clone(ws.settled)
		slices.Reverse(rev)
		if slices.Equal(rev, want) {
			plain++
		} else {
			tieRuns++
		}
		same := func(label string, got []int) {
			t.Helper()
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d: %s = %v, want %v (dist %v)", trial, label, got, want, sp.Dist)
			}
		}
		same("NodesByDistDesc", ws.NodesByDistDesc(sp))

		dag, err := ws.BuildDAG(g, w, dst, 0)
		if err != nil {
			t.Fatal(err)
		}
		same("ws.BuildDAG order", dag.NodesDescending())
		down, err := ws.DownwardDAG(g, w, dst)
		if err != nil {
			t.Fatal(err)
		}
		same("ws.DownwardDAG order", down.NodesDescending())
		fresh, err := BuildDAG(g, w, dst, 0)
		if err != nil {
			t.Fatal(err)
		}
		same("BuildDAG order", fresh.NodesDescending())
		freshDown, err := DownwardDAG(g, w, dst)
		if err != nil {
			t.Fatal(err)
		}
		same("DownwardDAG order", freshDown.NodesDescending())

		// A result that is not the latest Dijkstra's (here: Bellman-Ford
		// overwrote the distances) must be sorted, not derived.
		bf, err := ws.BellmanFordTo(g, w, dst)
		if err != nil {
			t.Fatal(err)
		}
		if ws.hasSettled {
			t.Fatalf("trial %d: settle order still marked valid after BellmanFordTo", trial)
		}
		same("NodesByDistDesc after BellmanFordTo", ws.NodesByDistDesc(bf))
	}
	if plain == 0 || tieRuns == 0 {
		t.Fatalf("plain reversal %d and tie-run reordering %d times; both shapes must occur", plain, tieRuns)
	}
	t.Logf("settle order reversed as is in %d trials, with tie runs reordered in %d", plain, tieRuns)
}

// TestSettledDescendingFallback drives the defensive path: an order
// that is not nondecreasing in distance (which Dijkstra never settles)
// is detected by the scan and heapsorted, still matching the sort.
func TestSettledDescendingFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	fellBack := 0
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(30)
		dist := make([]float64, n)
		nodes := make([]int, n)
		for i := range dist {
			dist[i] = float64(rng.Intn(5))
			nodes[i] = i
		}
		rng.Shuffle(n, func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
		want := appendNodesDescending(nil, dist)
		if !settledDescending(nodes, dist) {
			fellBack++
		}
		if !slices.Equal(nodes, want) {
			t.Fatalf("trial %d: got %v, want %v (dist %v)", trial, nodes, want, dist)
		}
	}
	if fellBack == 0 {
		t.Fatal("shuffled orders never took the heapsort fallback")
	}
}

// TestPackageLevelShortestPathAllocs pins the allocating entry points
// at their counts before settle recording existed: recording happens
// only in workspaces, so DijkstraTo keeps its four allocations
// (distances, heap, heap index, result) and Reachable its five.
func TestPackageLevelShortestPathAllocs(t *testing.T) {
	g, w, dst := allocSetup(t)
	if got := measureAllocs(func() {
		if _, err := DijkstraTo(g, w, dst); err != nil {
			t.Fatal(err)
		}
	}); got > 4 {
		t.Fatalf("DijkstraTo allocates %v objects/op, want at most 4", got)
	}
	if got := measureAllocs(func() {
		if _, err := Reachable(g, dst); err != nil {
			t.Fatal(err)
		}
	}); got > 5 {
		t.Fatalf("Reachable allocates %v objects/op, want at most 5", got)
	}
}

// TestDownwardDAGSteadyStateZeroAllocs extends the DAG allocation
// regression to the downward builder, which shares the settle order.
func TestDownwardDAGSteadyStateZeroAllocs(t *testing.T) {
	g, w, dst := allocSetup(t)
	ws := NewWorkspace(g)
	if got := measureAllocs(func() {
		if _, err := ws.DownwardDAG(g, w, dst); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("ws.DownwardDAG allocates %v objects/op in steady state, want 0", got)
	}
}
