package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	spef "repro"
	"repro/internal/core"
	"repro/internal/objective"
)

type sweepInputs struct {
	cells   []spef.Scenario
	opts    spef.RunOptions
	workers int
	ref     []refCell // recorded cells; nil at toy size
}

// sweepSuite is the workload's campaign: single-link failures x a
// diurnal day x two loads x four routers, weight reuse on, one worker
// per CPU. It does not depend on --seed: across gravity seeds the
// campaign's throughput varied by 18%, more than the bound it is held
// to.
func sweepSuite(c config) spef.Suite {
	s := spef.Suite{
		Topologies:   c.campaign,
		Demands:      "gravity-diurnal:steps=24",
		Loads:        []float64{0.1, 0.2},
		Failures:     "single",
		Routers:      []string{"invcap", "spef", "peft", "ospf-ls"},
		Workers:      runtime.NumCPU(),
		ReuseWeights: true,
	}
	if c.toy {
		s.Demands = "gravity-diurnal:steps=2"
		s.Loads = []float64{0.1}
	}
	return s
}

// newSweepInputs reads the workload's recorded campaign.
func newSweepInputs(c config) (*sweepInputs, error) {
	in := &sweepInputs{}
	if c.toy {
		return in, nil
	}
	var err error
	in.ref, err = loadSweepRef(c.name)
	return in, err
}

// resolve expands the campaign into its cells and run options, as
// `spef suite` does before its first cell.
func (in *sweepInputs) resolve(c config) error {
	suite := sweepSuite(c)
	in.workers = suite.Workers
	var err error
	if in.cells, err = suite.Scenarios(); err != nil {
		return err
	}
	in.opts, err = suite.RunOptions()
	return err
}

// matchRef checks that the recorded campaign has one cell per cell.
func (in *sweepInputs) matchRef() error {
	if in.ref != nil && len(in.ref) != len(in.cells) {
		return fmt.Errorf("the recorded campaign holds %d cells, this one has %d; rerun with -record",
			len(in.ref), len(in.cells))
	}
	return nil
}

// campaign streams every cell through a JSONL sink and returns the
// results in cell order, with the campaign's wall time net of steal and
// the steal. Traced runs record a span per sink write.
func campaign(ctx context.Context, in *sweepInputs, tr *tracer) ([]spef.ScenarioResult, time.Duration, time.Duration, error) {
	sink := spef.NewJSONLSink(io.Discard)
	out := make([]spef.ScenarioResult, len(in.cells))
	var sinkErr error
	watch := startWatch()
	for res := range spef.StreamScenarios(ctx, in.cells, in.opts) {
		out[res.Index] = res
		write := func() {
			if err := sink.Write(res); err != nil && sinkErr == nil {
				sinkErr = err
			}
		}
		if tr != nil {
			tr.timed("sweep", "spef.sink.stream", 0, write)
		} else {
			write()
		}
	}
	if err := sink.Flush(); err != nil && sinkErr == nil {
		sinkErr = err
	}
	wall, stolen := watch.stop()
	return out, wall, stolen, sinkErr
}

// verifyCell gates one sweep cell against its recorded reference.
func (in *sweepInputs) verifyCell(res spef.ScenarioResult) error {
	if in.ref == nil {
		if res.Err != nil {
			return fmt.Errorf("sweep cell %s: %w", res.Scenario, res.Err)
		}
		return nil
	}
	ref := in.ref[res.Index]
	switch {
	case res.Err != nil && !ref.failed:
		return fmt.Errorf("sweep cell %s: %w (the reference succeeded)", res.Scenario, res.Err)
	case res.Err == nil && ref.failed:
		return fmt.Errorf("sweep cell %s succeeded where the reference failed", res.Scenario)
	case res.Err == nil && !within(res.MLU(), ref.mlu, mluTol):
		return fmt.Errorf("sweep cell %s: MLU %.9g, recorded %.9g", res.Scenario, res.MLU(), ref.mlu)
	}
	return nil
}

// timedCampaign runs one campaign after a full collection, gates
// every cell, and returns its throughput in cells per second and its
// wall time net of steal.
func timedCampaign(ctx context.Context, r *run, in *sweepInputs) (float64, time.Duration, error) {
	runtime.GC()
	results, wall, stolen, err := campaign(ctx, in, nil)
	if err != nil {
		return 0, 0, fmt.Errorf("sweep sink: %w", err)
	}
	r.stolen += stolen
	for _, res := range results {
		r.check(in.verifyCell(res))
	}
	return float64(len(results)) / wall.Seconds(), wall, nil
}

// sweepTraced runs the campaign once, then replays it sequentially
// from the public API with a span per stage — the weight-reuse
// optimization of each group, the fixed-weight re-simulation, the
// evaluation, the metrics and the sink — and checks that the replay
// reproduces every cell bit for bit.
func sweepTraced(ctx context.Context, r *run, in *sweepInputs) error {
	runtime.GC()
	results, wall, _, err := campaign(ctx, in, r.tr)
	if err != nil {
		return fmt.Errorf("sweep sink: %w", err)
	}
	var busy time.Duration
	for _, res := range results {
		r.check(in.verifyCell(res))
		busy += res.Runtime
	}
	r.set("scenario.busy_frac", busy.Seconds()/(float64(in.workers)*wall.Seconds()), "ratio")

	tr := r.tr
	metrics := in.opts.Metrics
	if metrics == nil {
		metrics = spef.DefaultMetrics()
	}
	sink := spef.NewJSONLSink(io.Discard)
	type group struct {
		fixed spef.Router
		err   error
	}
	groups := map[string]*group{}
	optimizations := 0
	for i, s := range in.cells {
		router := s.Router
		if reusable(router.Name()) {
			key := s.Topology + "\x1f" + s.FailedLink + "\x1f" + router.Name()
			grp, ok := groups[key]
			if !ok {
				grp = &group{}
				groups[key] = grp
				optimizations++
				tr.timed("sweep-replay", "spef.optimize", 0, func() { grp.fixed, grp.err = fixedRouter(ctx, s) })
			}
			if grp.err != nil {
				r.check(sameOutcome(s, results[i], grp.err, math.NaN()))
				continue
			}
			router = grp.fixed
		}
		var routes *spef.Routes
		var report *spef.TrafficReport
		var err error
		res := spef.ScenarioResult{Index: i, Scenario: s.Name, Topology: s.Topology, Router: s.Router.Name(),
			Load: s.Load, Step: s.Step, FailedLink: s.FailedLink, Metrics: map[string]float64{}}
		cell := tr.begin("sweep-replay", "spef.cell", 0)
		tr.timed("sweep-replay", "spef.resimulate", cell, func() { routes, err = router.Routes(ctx, s.Network, s.Demands) })
		if err == nil {
			tr.timed("sweep-replay", "spef.evaluate", cell, func() { report, err = routes.Evaluate(s.Demands) })
		}
		if err == nil {
			tr.timed("sweep-replay", "spef.metrics", cell, func() {
				for _, m := range metrics {
					v, merr := m.Compute(routes, s.Demands, report)
					if merr != nil {
						v = math.NaN()
					}
					res.MetricNames = append(res.MetricNames, m.Name())
					res.Metrics[m.Name()] = v
				}
			})
		}
		tr.timed("sweep-replay", "spef.sink", cell, func() {
			if werr := sink.Write(res); werr != nil && err == nil {
				err = werr
			}
		})
		tr.end(cell)
		r.check(sameOutcome(s, results[i], err, res.MLU()))
	}
	r.set("spef.optimizations", float64(optimizations), "count")
	for _, stage := range []string{"optimize", "resimulate", "evaluate", "metrics", "sink"} {
		r.set("spef."+stage+"_s", tr.selfSum("spef."+stage).Seconds(), "s")
	}
	return nil
}

// reusable lists the sweep routers whose weights the scenario
// runner's weight cache optimizes once per group.
func reusable(name string) bool { return name == "SPEF" || name == "PEFT" || name == "OSPF-LS" }

// fixedRouter optimizes a group's reference cell and returns the
// fixed-weight router the weight cache would replay, built from the
// public API (PEFT's weights from Algorithm 1 directly, since its
// routes do not expose them).
func fixedRouter(ctx context.Context, s spef.Scenario) (spef.Router, error) {
	name := s.Router.Name()
	switch name {
	case "SPEF":
		routes, err := s.Router.Routes(ctx, s.Network, s.Demands)
		if err != nil {
			return nil, err
		}
		p := routes.Protocol()
		return spef.Named(name, spef.SPEFWithWeights(p.FirstWeights(), p.SecondWeights())), nil
	case "PEFT":
		g, tm, err := layerInputs(s.Network, s.Demands)
		if err != nil {
			return nil, err
		}
		obj, err := objective.NewQBeta(1, g.NumLinks(), nil)
		if err != nil {
			return nil, err
		}
		first, err := core.FirstWeights(ctx, g, tm, obj, core.FirstWeightOptions{})
		if err != nil {
			return nil, err
		}
		return spef.Named(name, spef.PEFT(first.W)), nil
	default:
		routes, err := s.Router.Routes(ctx, s.Network, s.Demands)
		if err != nil {
			return nil, err
		}
		return spef.Named(name, spef.OSPF(routes.ECMPWeights())), nil
	}
}

// sameOutcome checks a replayed cell against the campaign's: both
// failed, or both succeeded with bit-identical MLU.
func sameOutcome(s spef.Scenario, got spef.ScenarioResult, replayErr error, replayMLU float64) error {
	switch {
	case (got.Err != nil) != (replayErr != nil):
		return fmt.Errorf("sweep replay %s: campaign error %v, replay error %v", s.Name, got.Err, replayErr)
	case got.Err != nil:
		return nil
	case math.Float64bits(got.MLU()) != math.Float64bits(replayMLU):
		return fmt.Errorf("sweep replay %s: MLU %v, campaign %v", s.Name, replayMLU, got.MLU())
	}
	return nil
}
