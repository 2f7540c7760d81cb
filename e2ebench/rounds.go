package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// setUpsPerRound is how many throw-away set-ups each round times.
const setUpsPerRound = 4

// measure runs the untraced plan in rounds, one per ladder rung and
// pass. A round runs the rung's cold cells, the next slice of the serve
// stream and a few set-ups, then sweep campaigns paced so that the run
// lasts about --seconds. Interleaving spreads each metric's samples
// over the whole run: a slow period of a shared host then touches a
// share of every metric's samples rather than all of one metric's.
func measure(ctx context.Context, r *run, env *environment, start time.Time) (err error) {
	c, in := r.cfg, env.ladder
	first, err := env.setUp(c)
	if err != nil {
		return err
	}
	if err := env.matchRef(c); err != nil {
		return err
	}
	setups := []float64{first.Seconds()}

	ops := env.serve.stream(c.seed, c.serveOps)
	d, err := startDaemon(ctx, env.serve.srv)
	if err != nil {
		return err
	}
	defer func() {
		if stopErr := d.stop(); err == nil {
			err = stopErr
		}
	}()
	var replies []reply

	cells := map[string][]float64{}
	outs := map[string]*cellOut{}
	var rates []float64
	var busy time.Duration // the rounds' time outside the sweep
	deadline := start.Add(time.Duration(c.seconds * float64(time.Second)))
	rounds := c.ladderPasses * len(in.rungs)
	for round := 0; round < rounds; round++ {
		roundStart := time.Now()
		rg := in.rungs[round%len(in.rungs)]
		for rep := 0; rep < rg.reps; rep++ {
			runtime.GC()
			out := runCell(ctx, nil, rg.name, rg.router, in)
			r.check(in.verify(rg.name, out))
			r.stolen += out.stolen
			cells[rg.name] = append(cells[rg.name], out.elapsed.Seconds())
			outs[rg.name] = out
		}
		if round%len(in.rungs) == len(in.rungs)-1 {
			r.check(verifyPass(outs))
			outs = map[string]*cellOut{}
		}

		runtime.GC()
		chunk := ops[round*len(ops)/rounds : (round+1)*len(ops)/rounds]
		replies = append(replies, drive(d, serveName, chunk, nil, r.check)...)

		for i := 0; i < setUpsPerRound; i++ {
			runtime.GC()
			e := env.blank()
			t, err := e.setUp(c)
			e.close()
			if err != nil {
				return err
			}
			setups = append(setups, t.Seconds())
		}
		busy += time.Since(roundStart)

		// The sweep's share of this round: what is left of the run,
		// less the remaining rounds at the average round's cost, split
		// evenly over this round and those.
		left := rounds - round - 1
		share := (time.Until(deadline) - busy/time.Duration(round+1)*time.Duration(left)) / time.Duration(left+1)
		for spent := time.Duration(0); spent < share || (left == 0 && len(rates) < c.sweepMin); {
			rate, wall, err := timedCampaign(ctx, r, env.sweep)
			if err != nil {
				return err
			}
			rates = append(rates, rate)
			spent += wall
		}
	}
	r.check(env.serve.verifyFinal(d, serveName, ops))

	r.set("setup_s", median(setups), "s")
	for _, rg := range in.rungs {
		r.set("cell_s."+rg.name, median(cells[rg.name]), "s")
	}
	r.set("sweep_cells_per_s", median(rates), "1/s")
	events, whatifs := latencies(ops, replies)
	r.set("event_p50_ms", quantile(events, 0.5), "ms")
	r.set("event_p90_ms", quantile(events, 0.9), "ms")
	r.set("whatif_p50_ms", quantile(whatifs, 0.5), "ms")
	r.set("whatif_p90_ms", quantile(whatifs, 0.9), "ms")
	fmt.Printf("# %d rounds, %d campaigns, %d set-ups, %.1f s\n", rounds, len(rates), len(setups), time.Since(start).Seconds())
	return nil
}
