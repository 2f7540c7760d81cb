package graph

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadWeights reports a weight vector that does not match the graph or
// contains negative/NaN entries where forbidden.
var ErrBadWeights = errors.New("graph: bad weight vector")

// Unreachable is the distance reported for nodes with no path to the
// destination.
const Unreachable = math.MaxFloat64

// SPResult holds single-destination shortest-path distances: Dist[u] is
// the length of the shortest u -> Dst path under the weight vector used,
// or Unreachable if no path exists.
type SPResult struct {
	Dst  int
	Dist []float64
}

// checkWeights validates a per-link weight vector for shortest-path use.
func checkWeights(g *Graph, weights []float64) error {
	if len(weights) != g.NumLinks() {
		return fmt.Errorf("%w: got %d weights for %d links", ErrBadWeights, len(weights), g.NumLinks())
	}
	for i, w := range weights {
		if math.IsNaN(w) || w < 0 {
			return fmt.Errorf("%w: link %d has weight %v", ErrBadWeights, i, w)
		}
	}
	return nil
}

type pqItem struct {
	node int
	dist float64
}

// priorityQueue is an indexed binary min-heap over (node, dist) pairs.
// It is manipulated directly (push/fix/popMin) rather than through
// container/heap so no value is boxed into an interface on the hot path.
type priorityQueue struct {
	items []pqItem
	pos   []int // node -> index in items, or -1
}

func (q *priorityQueue) less(i, j int) bool { return q.items[i].dist < q.items[j].dist }

func (q *priorityQueue) swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.pos[q.items[i].node] = i
	q.pos[q.items[j].node] = j
}

// clear empties the heap and marks every node absent.
func (q *priorityQueue) clear(n int) {
	q.items = q.items[:0]
	for i := 0; i < n; i++ {
		q.pos[i] = -1
	}
}

func (q *priorityQueue) push(node int, dist float64) {
	q.pos[node] = len(q.items)
	q.items = append(q.items, pqItem{node: node, dist: dist})
	q.up(len(q.items) - 1)
}

// decrease lowers node's key to dist (the node must be in the heap).
func (q *priorityQueue) decrease(node int, dist float64) {
	i := q.pos[node]
	q.items[i].dist = dist
	q.up(i)
}

func (q *priorityQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *priorityQueue) down(i int) {
	n := len(q.items)
	for {
		child := 2*i + 1
		if child >= n {
			return
		}
		if r := child + 1; r < n && q.less(r, child) {
			child = r
		}
		if !q.less(child, i) {
			return
		}
		q.swap(i, child)
		i = child
	}
}

// popMin removes and returns the minimum item.
func (q *priorityQueue) popMin() pqItem {
	it := q.items[0]
	n := len(q.items) - 1
	q.swap(0, n)
	q.items = q.items[:n]
	q.pos[it.node] = -1
	if n > 0 {
		q.down(0)
	}
	return it
}

// dijkstraTo is the shared kernel behind DijkstraTo and
// Workspace.DijkstraTo: reverse Dijkstra over incoming links with an
// indexed heap, writing distances into dist (length NumNodes) using the
// given heap scratch. When settled is non-nil every node is appended to
// it as it settles (pass a slice with capacity NumNodes to stay
// allocation-free); the extended slice is returned. It performs no
// allocation.
func dijkstraTo(g *Graph, weights []float64, dst int, dist []float64, q *priorityQueue, settled []int) []int {
	n := g.NumNodes()
	for i := 0; i < n; i++ {
		dist[i] = Unreachable
	}
	dist[dst] = 0
	q.clear(n)
	q.push(dst, 0)
	for len(q.items) > 0 {
		it := q.popMin()
		if settled != nil {
			settled = append(settled, it.node)
		}
		for _, id := range g.InLinks(it.node) {
			from := g.links[id].From
			cand := it.dist + weights[id]
			if cand < dist[from] {
				dist[from] = cand
				if q.pos[from] >= 0 {
					q.decrease(from, cand)
				} else {
					q.push(from, cand)
				}
			}
		}
	}
	return settled
}

// checkSP validates the (weights, dst) pair shared by every
// shortest-path entry point.
func checkSP(g *Graph, weights []float64, dst int) error {
	if err := checkWeights(g, weights); err != nil {
		return err
	}
	return checkDst(g, dst)
}

func checkDst(g *Graph, dst int) error {
	if dst < 0 || dst >= g.NumNodes() {
		return fmt.Errorf("graph: destination %d out of range", dst)
	}
	return nil
}

// CheckWeights validates a per-link weight vector for shortest-path
// use: one entry per link, none negative or NaN. It returns exactly the
// error every shortest-path entry point would return for the vector.
// Callers that run many shortest-path computations under one vector
// (one per destination) check it once here and then use
// Workspace.DijkstraToChecked.
func CheckWeights(g *Graph, weights []float64) error { return checkWeights(g, weights) }

// DijkstraTo computes the shortest distance from every node to dst under
// the given non-negative per-link weights (reverse Dijkstra over incoming
// links). This is the destination-rooted orientation used by link-state
// routing protocols. It allocates a fresh result; iterative callers use
// Workspace.DijkstraTo, which reuses buffers and allocates nothing in
// steady state.
func DijkstraTo(g *Graph, weights []float64, dst int) (*SPResult, error) {
	if err := checkSP(g, weights, dst); err != nil {
		return nil, err
	}
	dist, _ := dijkstraAlloc(g, weights, dst, nil)
	return &SPResult{Dst: dst, Dist: dist}, nil
}

// dijkstraAlloc runs the kernel on freshly allocated distance and heap
// storage, appending the settle order onto settled when it is non-nil.
func dijkstraAlloc(g *Graph, weights []float64, dst int, settled []int) ([]float64, []int) {
	n := g.NumNodes()
	dist := make([]float64, n)
	q := &priorityQueue{items: make([]pqItem, 0, n), pos: make([]int, n)}
	settled = dijkstraTo(g, weights, dst, dist, q, settled)
	return dist, settled
}

// DijkstraTo is the workspace-backed form of the package-level
// DijkstraTo: bit-identical distances, zero allocation in steady state.
// The workspace also records the settle order, from which
// NodesByDistDesc and BuildDAG derive the decreasing-distance order
// without sorting. The returned result shares workspace storage and is
// valid until the next call on ws.
func (ws *Workspace) DijkstraTo(g *Graph, weights []float64, dst int) (*SPResult, error) {
	if err := checkSP(g, weights, dst); err != nil {
		return nil, err
	}
	return ws.dijkstra(g, weights, dst), nil
}

// DijkstraToChecked is Workspace.DijkstraTo for a weight vector that
// already passed CheckWeights against g: it skips the O(links) weight
// scan (dst is still range-checked) and is otherwise identical. An
// unchecked vector with negative or NaN entries yields unspecified
// distances.
func (ws *Workspace) DijkstraToChecked(g *Graph, weights []float64, dst int) (*SPResult, error) {
	if err := checkDst(g, dst); err != nil {
		return nil, err
	}
	return ws.dijkstra(g, weights, dst), nil
}

func (ws *Workspace) dijkstra(g *Graph, weights []float64, dst int) *SPResult {
	ws.fit(g)
	ws.settled = dijkstraTo(g, weights, dst, ws.dist, &ws.pq, ws.settled[:0])
	ws.hasSettled = true
	ws.sp = SPResult{Dst: dst, Dist: ws.dist}
	return &ws.sp
}

// bellmanFordTo relaxes every link until a pass settles (no distance
// changed), writing destination-rooted distances into dist. At most
// NumNodes passes run; each pass is a single allocation-free sweep over
// the link table.
func bellmanFordTo(g *Graph, weights []float64, dst int, dist []float64) {
	n := g.NumNodes()
	for i := 0; i < n; i++ {
		dist[i] = Unreachable
	}
	dist[dst] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for i := range g.links {
			l := &g.links[i]
			if dist[l.To] == Unreachable {
				continue
			}
			if cand := dist[l.To] + weights[l.ID]; cand < dist[l.From] {
				dist[l.From] = cand
				changed = true
			}
		}
		if !changed {
			break // settled pass: every further pass would be identical
		}
	}
}

// BellmanFordTo computes the same destination-rooted distances as
// DijkstraTo using Bellman-Ford relaxation. It exists as an independent
// oracle for testing and tolerates zero weights the same way.
func BellmanFordTo(g *Graph, weights []float64, dst int) (*SPResult, error) {
	if err := checkSP(g, weights, dst); err != nil {
		return nil, err
	}
	dist := make([]float64, g.NumNodes())
	bellmanFordTo(g, weights, dst, dist)
	return &SPResult{Dst: dst, Dist: dist}, nil
}

// BellmanFordTo is the workspace-backed form of the package-level
// BellmanFordTo: the distance buffer is reused across calls (the
// cross-check oracle runs once per destination per topology, so the
// per-call O(V) buffer used to dominate its allocation profile). The
// result shares workspace storage and is valid until the next call on
// ws.
func (ws *Workspace) BellmanFordTo(g *Graph, weights []float64, dst int) (*SPResult, error) {
	if err := checkSP(g, weights, dst); err != nil {
		return nil, err
	}
	ws.fit(g)
	bellmanFordTo(g, weights, dst, ws.dist)
	ws.hasSettled = false // ws.dist no longer matches the settle order
	ws.sp = SPResult{Dst: dst, Dist: ws.dist}
	return &ws.sp, nil
}

// Reachable reports whether every node can reach dst (used to validate
// experiment topologies before running optimization).
func Reachable(g *Graph, dst int) (bool, error) {
	w := make([]float64, g.NumLinks())
	sp, err := DijkstraTo(g, w, dst)
	if err != nil {
		return false, err
	}
	for _, d := range sp.Dist {
		if d == Unreachable {
			return false, nil
		}
	}
	return true, nil
}
