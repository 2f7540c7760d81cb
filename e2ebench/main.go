// Command e2ebench is the repository's end-to-end benchmark. It drives
// the public spef API (ladder cells and a sweep campaign), the
// in-process `spef serve` daemon over loopback, and — in a separate
// traced run — the public functions of each layer package, checks every
// output, and prints one JSON result line:
//
//	go run . --workload rand50-abilene-zoo --seed 1 --seconds 55 --trace 0
//
// Every run reports every metric of its trace mode (BENCHMARK.json
// lists them); the workload decides the inputs. See README.md for the
// workloads, the metrics and the layer each one belongs to.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run accumulates one invocation's metrics and operation counts.
type run struct {
	cfg       config
	tr        *tracer // nil in untraced runs
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
	// stolen totals the hypervisor steal taken out of the ladder cells
	// and sweep campaigns.
	stolen time.Duration
}

// set records a metric. A value that is not finite cannot be printed
// as JSON; it records 0 and fails the run.
func (r *run) set(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.check(fmt.Errorf("metric %s is %v", name, value))
		value = 0
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// check records one attempted operation, failed when err is non-nil.
func (r *run) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, err.Error())
		}
	}
}

// config is one invocation's plan.
type config struct {
	name string
	workload
	seed    int64
	seconds float64
	toy     bool

	// ladderPasses is the number of cold passes over the rungs.
	ladderPasses int
	// sweepMin is the least number of sweep campaigns; beyond it the
	// campaigns fill the run to --seconds.
	sweepMin int
	// serveOps is the length of the closed-loop serve stream, in client
	// operations (one event post or one what-if). It is a count, not a
	// time budget, so every run of a workload replays the same stream.
	serveOps int
}

// workload is one set of inputs. Every run reports every end-to-end
// metric, so every workload runs all three phases on its own inputs.
type workload struct {
	// instance is the topology of the ladder cells and the daemon.
	instance string
	// load is the ladder's network load, one at which the instance is
	// feasible (min MLU below 1), so SPEF, PEFT and Optimal all route.
	load float64
	// campaign lists the sweep's topologies.
	campaign []string
}

const zooFixture = "zoo:file=../internal/topoio/testdata/testnet.graphml"

// workloads are the paper's two synthetic network classes, each paired
// with a campaign over measured networks: abilene, cernet2 and the
// committed Topology Zoo fixture, split so that both campaigns carry
// real optimizations. The instances and campaigns do not depend on
// --seed (README.md says why); the seed drives the serve stream.
var workloads = map[string]workload{
	// The paper's Random class (unit capacities).
	"rand50-abilene-zoo": {instance: "rand:n=50,links=242,seed=1", load: 0.2, campaign: []string{"abilene", zooFixture}},
	// The paper's Hierarchical class (GT-ITM style, capacity-1 local
	// and capacity-5 long-distance links).
	"hier50-cernet2": {instance: "hier:n=50,clusters=5,links=222,seed=2", load: 0.1, campaign: []string{"cernet2"}},
}

// workloadNames lists the workloads for usage messages.
func workloadNames() string { return strings.Join(slices.Sorted(maps.Keys(workloads)), ", ") }

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var c config
	var trace int
	flag.StringVar(&c.name, "workload", "", "workload name ("+workloadNames()+")")
	flag.Int64Var(&c.seed, "seed", 1, "input seed")
	flag.Float64Var(&c.seconds, "seconds", 45, "measuring time of the run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.BoolVar(&c.toy, "toy", false, "run at toy size (self-test)")
	record := flag.Bool("record", false, "rewrite the reference files under ref/ instead of benchmarking")
	flag.Parse()
	w, ok := workloads[c.name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", c.name, workloadNames())
	}
	c.workload = w
	if *record {
		return recordReferences(context.Background(), c)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if c.seed < 0 {
		return fmt.Errorf("--seed must be non-negative, got %d", c.seed)
	}
	c.ladderPasses, c.sweepMin, c.serveOps = 2, 4, 12000
	if trace == 1 {
		// The traced run is one pass of everything: 2000 serve
		// operations leave ten what-ifs beyond p99.
		c.serveOps = 2000
	}
	if c.toy {
		c.ladderPasses, c.sweepMin, c.serveOps = 1, 1, 48
		c.instance, c.campaign = "abilene", []string{"abilene"}
	}
	r := &run{cfg: c, metrics: map[string]metric{}}
	if trace == 1 {
		r.tr = newTracer()
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "default"
	}
	fmt.Printf("# e2ebench workload=%s seed=%d seconds=%g trace=%d GOMAXPROCS=%d GOGC=%s %s\n",
		c.name, c.seed, c.seconds, trace, runtime.GOMAXPROCS(0), gogc, runtime.Version())

	if err := execute(context.Background(), r); err != nil {
		return err
	}
	if r.tr != nil {
		if err := r.tr.write(fmt.Sprintf("%s-seed%d", c.name, c.seed)); err != nil {
			return err
		}
	}
	fmt.Printf("# hypervisor steal taken out of the timed cells and campaigns: %.3f s\n", r.stolen.Seconds())
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "e2ebench: check failed:", p)
	}
	out, err := json.Marshal(result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// execute prepares the run, then measures the untraced plan or runs
// the traced one.
func execute(ctx context.Context, r *run) error {
	start := time.Now()
	env, err := newEnvironment(r.cfg)
	if err != nil {
		return err
	}
	defer env.close()
	if r.tr == nil {
		heap := watchHeap()
		if err := measure(ctx, r, env, start); err != nil {
			return err
		}
		r.set("heap_peak_mb", float64(heap.stop())/(1<<20), "MB")
		return nil
	}
	if _, err := env.setUp(r.cfg); err != nil {
		return err
	}
	if err := env.matchRef(r.cfg); err != nil {
		return err
	}
	if err := serveTraced(ctx, r, env.serve); err != nil {
		return err
	}
	if err := ladderTraced(ctx, r, env.ladder); err != nil {
		return err
	}
	return sweepTraced(ctx, r, env.sweep)
}

// environment holds the inputs of every phase.
type environment struct {
	ladder *ladderInputs
	sweep  *sweepInputs
	serve  *serveInputs
}

// newEnvironment does the benchmark's own, untimed preparation: it
// reads the recorded references and builds what the serve client needs
// to generate its stream.
func newEnvironment(c config) (*environment, error) {
	ladder, err := newLadderInputs(c)
	if err != nil {
		return nil, fmt.Errorf("ladder set-up: %w", err)
	}
	sweep, err := newSweepInputs(c)
	if err != nil {
		return nil, fmt.Errorf("sweep set-up: %w", err)
	}
	serve, err := newServeInputs(c)
	if err != nil {
		return nil, fmt.Errorf("serve set-up: %w", err)
	}
	return &environment{ladder: ladder, sweep: sweep, serve: serve}, nil
}

// setUp runs and times the program's set-up: resolving the ladder
// instance, its routers and its grid cell, expanding the campaign's
// scenarios and run options, and loading the daemon.
func (e *environment) setUp(c config) (time.Duration, error) {
	start := time.Now()
	err := e.ladder.resolve(c)
	if err == nil {
		err = e.sweep.resolve(c)
	}
	if err == nil {
		err = e.serve.load()
	}
	return time.Since(start), err
}

// blank returns unresolved inputs of the same workload, for a set-up
// that is timed and thrown away.
func (e *environment) blank() *environment {
	return &environment{
		ladder: &ladderInputs{instance: e.ladder.instance, load: e.ladder.load},
		sweep:  &sweepInputs{},
		serve:  &serveInputs{spec: e.serve.spec},
	}
}

// matchRef checks the recorded references against the resolved inputs.
func (e *environment) matchRef(c config) error {
	if err := e.ladder.matchRef(c); err != nil {
		return err
	}
	return e.sweep.matchRef()
}

func (e *environment) close() { e.serve.close() }
