package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"

	spef "repro"
	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/traffic"
)

// The reference files under ref/<workload>/ hold the outputs recorded
// on the commit that introduced the benchmark; runs compare against
// them within mluTol. `go run . -record --workload <name>` rewrites a
// workload's files.
const refDir = "ref"

func ladderRefPath(workload string) string { return filepath.Join(refDir, workload, "ladder.json") }

func sweepRefPath(workload string) string { return filepath.Join(refDir, workload, "sweep.txt.gz") }

// ladderRef records the ladder instance's min-MLU bound and each rung's
// MLU.
type ladderRef struct {
	Instance string             `json:"instance"`
	Load     float64            `json:"load"`
	MinMLU   float64            `json:"min_mlu"`
	MLU      map[string]float64 `json:"mlu"`
}

// mlu returns a rung's recorded MLU; false without a reference.
func (r *ladderRef) mlu(rung string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	v, ok := r.MLU[rung]
	return v, ok
}

func loadLadderRef(workload string) (*ladderRef, error) {
	path := ladderRefPath(workload)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ref ladderRef
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &ref, nil
}

// refCell is one recorded sweep cell: failed, or its MLU.
type refCell struct {
	failed bool
	mlu    float64
}

// loadSweepRef reads one line per cell, in cell order: "err" or the
// MLU.
func loadSweepRef(workload string) ([]refCell, error) {
	path := sweepRefPath(workload)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	var cells []refCell
	sc := bufio.NewScanner(zr)
	for sc.Scan() {
		if sc.Text() == "err" {
			cells = append(cells, refCell{failed: true})
			continue
		}
		v, err := strconv.ParseFloat(sc.Text(), 64)
		if err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, len(cells)+1, err)
		}
		cells = append(cells, refCell{mlu: v})
	}
	return cells, sc.Err()
}

// recordReferences reruns the workload's ladder and campaign and
// rewrites its reference files.
func recordReferences(ctx context.Context, c config) error {
	if err := os.MkdirAll(filepath.Dir(ladderRefPath(c.name)), 0o755); err != nil {
		return err
	}
	ref := ladderRef{Instance: c.instance, Load: c.load, MLU: map[string]float64{}}
	in := &ladderInputs{instance: c.instance, load: c.load}
	if err := in.resolve(c); err != nil {
		return err
	}
	var flows [][]float64
	var outs = map[string]*cellOut{}
	for _, rg := range in.rungs {
		out := runCell(ctx, nil, rg.name, rg.router, in)
		if err := in.verify(rg.name, out); err != nil {
			return err
		}
		outs[rg.name] = out
		flows = append(flows, out.report.LinkFlow)
		ref.MLU[rg.name] = out.report.MLU
		fmt.Fprintf(os.Stderr, "record: ladder %s MLU %.9g utility %.9g\n", rg.name, out.report.MLU, out.report.Utility)
	}
	if err := verifyPass(outs); err != nil {
		return err
	}
	g, tm, err := layerInputs(in.net, in.dem)
	if err != nil {
		return err
	}
	if ref.MinMLU, err = dualBound(g, tm, flows); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "record: min-MLU lower bound %.9g\n", ref.MinMLU)
	for name, mlu := range ref.MLU {
		if mlu < ref.MinMLU-1e-6 {
			return fmt.Errorf("record: %s MLU %.9g is below the bound %.9g", name, mlu, ref.MinMLU)
		}
	}
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(ladderRefPath(c.name), append(b, '\n'), 0o644); err != nil {
		return err
	}

	sweep := &sweepInputs{}
	if err := sweep.resolve(c); err != nil {
		return err
	}
	results, _, _, err := campaign(ctx, sweep, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "record: sweep, %d cells\n", len(results))
	return writeSweepRef(sweepRefPath(c.name), results)
}

func writeSweepRef(path string, results []spef.ScenarioResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestCompression)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriter(zw)
	for _, res := range results {
		if res.Err != nil {
			fmt.Fprintln(w, "err")
		} else {
			fmt.Fprintln(w, strconv.FormatFloat(res.MLU(), 'g', 7, 64))
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dualBound returns a lower bound on the instance's min MLU by weak LP
// duality: for any link prices y >= 0, every routing has
// MLU >= sum_(s,t) d_st dist_y(s,t) / sum_e y_e c_e. The prices start
// at the bottleneck links of the given routings and are then improved
// by multiplicative updates along all-or-nothing routings (the
// Garg-Koenemann scheme). Any price vector gives a valid bound, so the
// bound only depends on Dijkstra being right. (mcf.MinMLU's dense edge
// LP would be exact but runs for many minutes on rand50.)
func dualBound(g *graph.Graph, tm *traffic.Matrix, flows [][]float64) (float64, error) {
	bound := func(y []float64) (float64, error) {
		var cost, capSum float64
		for e, ye := range y {
			capSum += ye * g.Link(e).Cap
		}
		for _, t := range tm.Destinations() {
			sp, err := graph.DijkstraTo(g, y, t)
			if err != nil {
				return 0, err
			}
			for s := 0; s < tm.Size(); s++ {
				if d := tm.At(s, t); d > 0 {
					cost += d * sp.Dist[s]
				}
			}
		}
		return cost / capSum, nil
	}
	best, start := 0.0, []float64(nil)
	for _, f := range flows {
		mlu := 0.0
		for e, x := range f {
			mlu = max(mlu, x/g.Link(e).Cap)
		}
		y := make([]float64, len(f))
		for e, x := range f {
			y[e] = 1e-3
			if x/g.Link(e).Cap >= mlu*(1-1e-6) {
				y[e] = 1
			}
		}
		b, err := bound(y)
		if err != nil {
			return 0, err
		}
		if b > best {
			best, start = b, y
		}
	}
	y := start
	const rounds, eps = 2000, 0.05
	for i := 0; i < rounds; i++ {
		flow, err := mcf.AllOrNothing(g, tm, y)
		if err != nil {
			return 0, err
		}
		peak := 0.0
		for e, x := range flow.Total {
			peak = max(peak, x/g.Link(e).Cap)
		}
		norm := 0.0
		for e, x := range flow.Total {
			y[e] *= math.Exp(eps * x / g.Link(e).Cap / peak)
			norm += y[e] * g.Link(e).Cap
		}
		for e := range y {
			y[e] /= norm
		}
		b, err := bound(y)
		if err != nil {
			return 0, err
		}
		best = max(best, b)
	}
	return best, nil
}
