package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	spef "repro"
	"repro/internal/core"
	"repro/internal/explicit"
	"repro/internal/graph"
	"repro/internal/localsearch"
	"repro/internal/mcf"
	"repro/internal/objective"
	"repro/internal/routing"
)

const (
	// spefUtilityTol bounds |U_spef - U_opt| / |U_opt|: the paper's
	// claim that SPEF reaches the optimal traffic distribution. On
	// rand50-abilene-zoo the gap is 0.37% (-205.006 against -204.242), on
	// hier50-cernet2 0.19% (-110.970 against -110.756).
	spefUtilityTol = 1e-2
	// mluTol is the loose relative tolerance against recorded MLUs:
	// wide enough for a legitimate solver change, tight enough to catch
	// a rung that lost its optimization.
	mluTol = 1e-2
)

// rung is one router of the optimality ladder.
type rung struct {
	name, spec string
	router     spef.Router
	// reps is how often a pass runs the cell: the rungs of a second or
	// less run three times, for more samples at little cost.
	reps int
}

// ladderRungs lists the rungs in their fixed pass order.
func ladderRungs() []rung {
	return []rung{
		{name: "spef", spec: "spef", reps: 1},
		{name: "peft", spec: "peft", reps: 1},
		{name: "optimal", spec: "optimal", reps: 1},
		{name: "ospf-ls", spec: "ospf-ls", reps: 3},
		{name: "sr", spec: "sr", reps: 3},
		{name: "mpls", spec: "mpls-ksp:colgen=on", reps: 3},
	}
}

type ladderInputs struct {
	instance string
	load     float64
	net      *spef.Network
	dem      *spef.Demands
	rungs    []rung
	invcap   spef.Router
	metrics  []spef.Metric
	minMLU   float64
	ref      *ladderRef // recorded MLUs; nil at toy size
}

// newLadderInputs reads the workload's recorded ladder outputs.
func newLadderInputs(c config) (*ladderInputs, error) {
	in := &ladderInputs{instance: c.instance, load: c.load}
	if c.toy {
		return in, nil
	}
	var err error
	in.ref, err = loadLadderRef(c.name)
	return in, err
}

// resolve resolves the instance at the ladder load and every rung's
// router, as a suite run does before its first cell.
func (in *ladderInputs) resolve(c config) error {
	in.rungs, in.metrics = ladderRungs(), spef.DefaultMetrics()
	t, err := spef.ResolveTopology(in.instance)
	if err != nil {
		return err
	}
	for i := range in.rungs {
		if in.rungs[i].router, err = spef.ResolveRouter(in.rungs[i].spec, 0); err != nil {
			return err
		}
	}
	if in.invcap, err = spef.ResolveRouter("invcap", 0); err != nil {
		return err
	}
	cells, err := spef.Grid{Topologies: []spef.Topology{t}, Loads: []float64{in.load}, Routers: []spef.Router{in.invcap}}.Scenarios()
	if err != nil {
		return err
	}
	in.net, in.dem = cells[0].Network, cells[0].Demands
	return nil
}

// matchRef checks that the recorded outputs describe this ladder and
// takes the min-MLU bound from them. At toy size the bound is the
// exact edge LP's.
func (in *ladderInputs) matchRef(c config) error {
	if c.toy {
		g, tm, err := layerInputs(in.net, in.dem)
		if err != nil {
			return err
		}
		res, err := mcf.MinMLU(g, tm)
		if err != nil {
			return err
		}
		in.minMLU = res.MLU
		return nil
	}
	if in.ref.Instance != in.instance || in.ref.Load != in.load || len(in.ref.MLU) != len(in.rungs) {
		return fmt.Errorf("%s does not describe this ladder; rerun with -record", ladderRefPath(c.name))
	}
	in.minMLU = in.ref.MinMLU
	return nil
}

// cellOut is one cold cell: routes, evaluation and metrics.
type cellOut struct {
	routes  *spef.Routes
	report  *spef.TrafficReport
	values  map[string]float64
	elapsed time.Duration // wall time net of hypervisor steal
	stolen  time.Duration
	err     error
	// span IDs of the three stages (traced runs only)
	routesSpan, evalSpan, metricsSpan int
}

// runCell runs one cell exactly as the scenario runner does: the
// router's Routes, Routes.Evaluate, then every metric.
func runCell(ctx context.Context, tr *tracer, rungName string, router spef.Router, in *ladderInputs) *cellOut {
	out := &cellOut{values: map[string]float64{}}
	op, cell := "ladder/"+rungName, 0
	if tr != nil {
		cell = tr.begin(op, "spef.cell."+rungName, 0)
		defer tr.end(cell)
	}
	stage := func(name string, f func()) int {
		if tr == nil {
			f()
			return 0
		}
		return tr.timed(op, name+"."+rungName, cell, f)
	}
	watch := startWatch()
	out.routesSpan = stage("spef.routes", func() { out.routes, out.err = router.Routes(ctx, in.net, in.dem) })
	if out.err == nil {
		out.evalSpan = stage("spef.evaluate", func() { out.report, out.err = out.routes.Evaluate(in.dem) })
	}
	if out.err == nil {
		out.metricsSpan = stage("spef.metrics", func() {
			for _, m := range in.metrics {
				v, err := m.Compute(out.routes, in.dem, out.report)
				if err != nil {
					out.err = fmt.Errorf("metric %s: %w", m.Name(), err)
					return
				}
				out.values[m.Name()] = v
			}
		})
	}
	out.elapsed, out.stolen = watch.stop()
	return out
}

// verify gates one cell's output.
func (in *ladderInputs) verify(rungName string, out *cellOut) error {
	if out.err != nil {
		return fmt.Errorf("ladder %s: %w", rungName, out.err)
	}
	if err := conserved(in.net, in.dem, out.report.LinkFlow); err != nil {
		return fmt.Errorf("ladder %s: flow conservation: %w", rungName, err)
	}
	mlu := out.report.MLU
	if mlu < in.minMLU-1e-6 {
		return fmt.Errorf("ladder %s: MLU %.9g is below the min-MLU bound %.9g", rungName, mlu, in.minMLU)
	}
	if want, ok := in.ref.mlu(rungName); ok && !within(mlu, want, mluTol) {
		return fmt.Errorf("ladder %s: MLU %.9g, recorded %.9g", rungName, mlu, want)
	}
	return nil
}

// verifyPass gates the paper's claim on one pass: SPEF's utility is
// within spefUtilityTol of the optimal reference's.
func verifyPass(outs map[string]*cellOut) error {
	s, o := outs["spef"], outs["optimal"]
	if s == nil || o == nil || s.err != nil || o.err != nil {
		return errors.New("ladder: SPEF or Optimal cell missing")
	}
	if !within(s.report.Utility, o.report.Utility, spefUtilityTol) {
		return fmt.Errorf("ladder: SPEF utility %.9g is not within %g of Optimal's %.9g",
			s.report.Utility, spefUtilityTol, o.report.Utility)
	}
	return nil
}

// ladderTraced runs one traced pass (plus the InvCap cell) and then
// replicates every rung from its layer packages' public functions,
// checking the replica against the router bit for bit.
func ladderTraced(ctx context.Context, r *run, in *ladderInputs) error {
	outs := map[string]*cellOut{}
	all := append(append([]rung(nil), in.rungs...), rung{name: "invcap", router: in.invcap})
	for _, rg := range all {
		runtime.GC()
		var out *cellOut
		gc, mb := memDelta(func() { out = runCell(ctx, r.tr, rg.name, rg.router, in) })
		r.check(in.verify(rg.name, out))
		outs[rg.name] = out
		if rg.name == "invcap" {
			r.set("spef.cell_s.invcap", out.elapsed.Seconds(), "s")
			continue
		}
		r.set("spef.routes_s."+rg.name, spanSeconds(r.tr, out.routesSpan), "s")
		r.set("spef.evaluate_s."+rg.name, spanSeconds(r.tr, out.evalSpan), "s")
		r.set("spef.metrics_s."+rg.name, spanSeconds(r.tr, out.metricsSpan), "s")
		r.set("runtime.gc_cycles."+rg.name, gc, "count")
		r.set("runtime.alloc_mb."+rg.name, mb, "MB")
	}
	r.check(verifyPass(outs))
	return replicateLadder(ctx, r, in, outs)
}

// spanSeconds is a stage's self time; NaN when the stage did not run.
func spanSeconds(tr *tracer, id int) float64 {
	if id == 0 {
		return math.NaN()
	}
	return tr.self(id).Seconds()
}

// replicateLadder re-derives every rung from the layer packages with
// the routers' default options, one span per public call.
func replicateLadder(ctx context.Context, r *run, in *ladderInputs, outs map[string]*cellOut) error {
	tr := r.tr
	g, tm, err := layerInputs(in.net, in.dem)
	if err != nil {
		return err
	}
	obj, err := objective.NewQBeta(1, g.NumLinks(), nil)
	if err != nil {
		return err
	}
	dests := tm.Destinations()
	layer := func(name string, f func()) time.Duration {
		return tr.self(tr.timed("layers", name, 0, f))
	}
	conservationTol := 1e-6 * math.Max(tm.Total(), 1)
	routed := func(name string, flow *mcf.Flow) error {
		if err := flow.CheckConservation(g, tm, conservationTol); err != nil {
			return fmt.Errorf("replica %s: %w", name, err)
		}
		return nil
	}

	// SPEF: Algorithm 1, then DAGs and Algorithm 2 (NEM).
	var first *core.FirstWeightResult
	d := layer("core.first_weights", func() { first, err = core.FirstWeights(ctx, g, tm, obj, core.FirstWeightOptions{}) })
	if err != nil {
		return fmt.Errorf("replica core.FirstWeights: %w", err)
	}
	r.set("core.first_weights_s", d.Seconds(), "s")
	r.set("core.alg1_iters", float64(first.Iters), "count")
	r.check(routed("core.FirstWeights", first.Flow))
	var proto *core.Protocol
	d = layer("core.build_with_weights", func() {
		proto, err = core.BuildWithWeights(ctx, g, tm, first.W, first.Flow, 0, core.SecondWeightOptions{})
	})
	if err != nil {
		return fmt.Errorf("replica core.BuildWithWeights: %w", err)
	}
	r.set("core.build_with_weights_s", d.Seconds(), "s")
	if p := outs["spef"].routes.Protocol(); p == nil {
		r.check(errors.New("replica spef: router returned no protocol"))
	} else {
		r.check(errors.Join(sameBits("replica spef first weights", proto.W, p.FirstWeights()),
			sameBits("replica spef second weights", proto.V, p.SecondWeights())))
	}
	// The Dijkstra kernel behind Algorithm 1's routing subproblem and
	// Frank-Wolfe's all-or-nothing step: one DijkstraTo per destination.
	d = layer("graph.dijkstra_all", func() {
		for _, t := range dests {
			if _, err = graph.DijkstraTo(g, first.W, t); err != nil {
				return
			}
		}
	})
	if err != nil {
		return fmt.Errorf("replica graph.DijkstraTo: %w", err)
	}
	r.set("graph.dijkstra_all_s", d.Seconds(), "s")

	// PEFT: the same first weights, downward PEFT splits.
	var peft *routing.PEFT
	d = layer("routing.peft_build", func() { peft, err = routing.BuildPEFT(g, dests, first.W) })
	if err != nil {
		return fmt.Errorf("replica routing.BuildPEFT: %w", err)
	}
	r.set("routing.peft_build_s", d.Seconds(), "s")
	r.check(sameSplits("replica peft", outs["peft"].routes, peft.Splits, dests))

	// Optimal: Frank-Wolfe continuation.
	var fw *mcf.FWResult
	d = layer("mcf.frank_wolfe", func() { fw, err = mcf.FrankWolfeContinuation(ctx, g, tm, obj, mcf.FWOptions{}) })
	if err != nil {
		return fmt.Errorf("replica mcf.FrankWolfeContinuation: %w", err)
	}
	r.set("mcf.fw_s", d.Seconds(), "s")
	r.set("mcf.fw_iters", float64(fw.Iters), "count")
	r.set("mcf.fw_gap", fw.Gap, "ratio")
	r.check(routed("mcf.FrankWolfeContinuation", fw.Flow))
	r.check(sameBits("replica optimal flow", fw.Flow.Total, outs["optimal"].report.LinkFlow))

	// OSPF-LS: Fortz-Thorup local search from InvCap.
	var ls *localsearch.Result
	d = layer("localsearch.search", func() {
		ls, err = localsearch.Search(ctx, g, tm, localsearch.Options{InitWeights: routing.InvCapWeights(g)})
	})
	if err != nil {
		return fmt.Errorf("replica localsearch.Search: %w", err)
	}
	r.set("localsearch.search_s", d.Seconds(), "s")
	r.set("localsearch.evals", float64(ls.Evals), "count")
	r.check(sameBits("replica ospf-ls weights", ls.Weights, outs["ospf-ls"].routes.ECMPWeights()))

	// SR-2seg over the same base weights, with and without the exact
	// bottleneck screen (which must not change the routing).
	var uf *explicit.UnitFlows
	d = layer("explicit.unit_flows", func() { uf, err = explicit.BuildUnitFlows(g, ls.Weights, 0) })
	if err != nil {
		return fmt.Errorf("replica explicit.BuildUnitFlows: %w", err)
	}
	r.set("explicit.unitflows_s", d.Seconds(), "s")
	var sr, screened *explicit.SRResult
	d = layer("explicit.two_segment", func() { sr, err = explicit.TwoSegmentOpt(ctx, uf, tm, explicit.SROptions{Segments: 2}) })
	if err != nil {
		return fmt.Errorf("replica explicit.TwoSegmentOpt: %w", err)
	}
	r.set("explicit.sr_s", d.Seconds(), "s")
	r.set("explicit.sr_passes", float64(sr.Passes), "count")
	r.check(routed("explicit.TwoSegmentOpt", sr.Flow))
	r.check(sameBits("replica sr flow", sr.Flow.Total, outs["sr"].report.LinkFlow))
	layer("explicit.two_segment_screened", func() {
		screened, err = explicit.TwoSegmentOpt(ctx, uf, tm, explicit.SROptions{Segments: 2, Screen: true})
	})
	if err != nil {
		return fmt.Errorf("replica screened explicit.TwoSegmentOpt: %w", err)
	}
	r.set("explicit.sr_screened", float64(screened.Screened), "count")
	r.check(sameBits("screened sr flow", screened.Flow.Total, sr.Flow.Total))

	// MPLS-kSP with column generation: best of direct ECMP, SR and the
	// path LP, as the router picks.
	direct, err := uf.DirectFlow(tm)
	if err != nil {
		return fmt.Errorf("replica explicit.DirectFlow: %w", err)
	}
	best, bestMLU := direct, explicit.MaxUtil(g, direct.Total)
	if sr.MLU < bestMLU {
		best, bestMLU = sr.Flow, sr.MLU
	}
	var col *explicit.LPResult
	d = layer("explicit.colgen", func() {
		var lp *explicit.PathLP
		if lp, err = explicit.NewPathLP(g, ls.Weights, 4); err == nil {
			col, err = lp.SolveColGen(ctx, tm)
		}
	})
	if err != nil {
		return fmt.Errorf("replica explicit.SolveColGen: %w", err)
	}
	r.set("explicit.colgen_s", d.Seconds(), "s")
	r.set("explicit.colgen_rounds", float64(col.Rounds), "count")
	r.set("explicit.colgen_columns", float64(col.Paths), "count")
	if col.MLU < bestMLU {
		best = col.Flow
	}
	r.check(routed("explicit.SolveColGen", col.Flow))
	r.check(sameBits("replica mpls flow", best.Total, outs["mpls"].report.LinkFlow))

	// The dense k-path LP the colgen default replaces: a diagnostic with
	// no end-to-end target. Column generation prices over all simple
	// paths, so its MLU can only be lower.
	var dense *explicit.LPResult
	d = layer("explicit.pathlp_dense", func() {
		var lp *explicit.PathLP
		if lp, err = explicit.NewPathLP(g, ls.Weights, 4); err == nil {
			dense, err = lp.Solve(ctx, tm)
		}
	})
	if err != nil {
		return fmt.Errorf("replica explicit.PathLP.Solve: %w", err)
	}
	r.set("explicit.pathlp_dense_s", d.Seconds(), "s")
	r.set("explicit.pathlp_dense_columns", float64(dense.Paths), "count")
	if col.MLU > dense.MLU+1e-6 {
		r.check(fmt.Errorf("colgen MLU %.9g exceeds the dense k-path LP's %.9g", col.MLU, dense.MLU))
	} else {
		r.check(nil)
	}
	return nil
}

// sameSplits compares a router's split ratios with a replica's, bit
// for bit, for every destination.
func sameSplits(what string, routes *spef.Routes, splits map[int][]float64, dests []int) error {
	for _, t := range dests {
		got, err := routes.SplitRatios(t)
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if err := sameBits(fmt.Sprintf("%s destination %d", what, t), splits[t], got); err != nil {
			return err
		}
	}
	return nil
}
