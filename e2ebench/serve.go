package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"time"

	spef "repro"
	"repro/internal/graph"
	"repro/internal/serve"
)

const serveName = "bench"

// serveInputs is a loaded daemon and what the client needs to drive it.
type serveInputs struct {
	spec    string
	srv     *serve.Server
	net     *spef.Network
	dem     *spef.Demands
	weights []float64 // the daemon's initial (InvCap) weights
	pairs   [][2]int  // demand pairs with positive volume
	safe    []int     // links whose failure strands no demand
}

// newServeInputs resolves the workload's instance for the client's
// stream and checks: the initial weights, the demand pairs, and the
// links whose failure strands no demand. The seed drives the stream,
// not the instance: the delta engine's cost per event depends on the
// instance, and across rand50 seeds the what-if p90 varied by more
// than the bound it is held to.
func newServeInputs(c config) (*serveInputs, error) {
	in := &serveInputs{spec: c.instance}
	t, err := spef.ResolveTopology(in.spec)
	if err != nil {
		return nil, err
	}
	in.net, in.dem = t.Network, t.Demands
	eng, err := spef.NewDeltaEngine(in.net, in.dem, nil)
	if err != nil {
		return nil, err
	}
	in.weights = eng.Weights()
	g, tm, err := layerInputs(in.net, in.dem)
	if err != nil {
		return nil, err
	}
	for _, d := range tm.Demands() {
		in.pairs = append(in.pairs, [2]int{d.Src, d.Dst})
	}
	for id := 0; id < g.NumLinks(); id++ {
		ok, err := routableWithout(g, tm.Destinations(), id)
		if err != nil {
			return nil, err
		}
		if ok {
			in.safe = append(in.safe, id)
		}
	}
	if len(in.safe) == 0 || len(in.pairs) == 0 {
		return nil, fmt.Errorf("%s: no failable link or no demand", in.spec)
	}
	return in, nil
}

// load starts a daemon and loads the instance into it, as
// `spef serve` does on a load request.
func (in *serveInputs) load() error {
	in.srv = serve.New(serve.Options{})
	return in.srv.Load(serve.LoadRequest{Name: serveName, Topology: in.spec})
}

func routableWithout(g *graph.Graph, dests []int, link int) (bool, error) {
	g2, _, err := g.WithoutLinks(link)
	if err != nil {
		return false, err
	}
	for _, t := range dests {
		if ok, err := graph.Reachable(g2, t); err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

func (in *serveInputs) close() {
	if in.srv != nil {
		in.srv.Close()
		in.srv = nil
	}
}

// op is one client operation: an event post or a what-if query.
type op struct {
	class  string // set-weight, set-demand, link-down, link-up, whatif-weight, whatif-link-down
	whatIf bool
	ev     serve.Event
}

// stream generates n operations from the seed. It cycles through
// sixteen operations, alternating events and what-ifs, and restores a
// failed link before the next failure:
//
//	set-weight, whatif-weight, set-demand, whatif-weight,
//	set-weight, whatif-link-down, set-demand, whatif-weight,
//	link-down, whatif-weight, link-up, whatif-link-down,
//	set-weight, whatif-weight, set-demand, whatif-weight
//
// No measured controller workload backs this mix: we found no public
// source for how often an OSPF traffic-engineering controller sees
// weight changes, demand updates and failures, so the shares are
// arbitrary and were chosen for percentile stability. Failures are a
// quarter of the events and of the what-ifs. They cost several times a
// weight or demand change, so with an even split the p50 would fall in
// the gap between the two clusters and jump with every few requests
// that cross it; at a quarter, p50 lies inside the cheap cluster and
// p90 inside the failure cluster. The p50s therefore do not see the
// cost of a failure; the p90s and the per-layer delta.link_*_us and
// delta.whatif_link_down_us do.
//
// Weights and volumes stay within [0.5, 1.5) of their initial values,
// so the routing state does not drift over a long stream.
func (in *serveInputs) stream(seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, 0, n)
	down := -1
	weight := func(exclude int) serve.Event {
		l := rng.Intn(len(in.weights))
		for l == exclude {
			l = rng.Intn(len(in.weights))
		}
		return serve.Event{Type: "set-weight", Link: l, Weight: in.weights[l] * (0.5 + rng.Float64())}
	}
	for i := 0; len(ops) < n; i++ {
		var o op
		switch i % 16 {
		case 0, 4, 12:
			o = op{class: "set-weight", ev: weight(-1)}
		case 2, 6, 14:
			p := in.pairs[rng.Intn(len(in.pairs))]
			v := in.dem.At(p[0], p[1]) * (0.5 + rng.Float64())
			o = op{class: "set-demand", ev: serve.Event{Type: "set-demand", Src: p[0], Dst: p[1], Volume: v}}
		case 8:
			down = in.safe[rng.Intn(len(in.safe))]
			o = op{class: "link-down", ev: serve.Event{Type: "link-down", Link: down}}
		case 10:
			o = op{class: "link-up", ev: serve.Event{Type: "link-up", Link: down}}
			down = -1
		case 5, 11:
			o = op{class: "whatif-link-down", whatIf: true, ev: serve.Event{Type: "link-down", Link: in.safe[rng.Intn(len(in.safe))]}}
		default:
			o = op{class: "whatif-weight", whatIf: true, ev: weight(down)}
		}
		ops = append(ops, o)
	}
	return ops
}

// daemon serves the loaded instances on a loopback listener until stop.
type daemon struct {
	base   string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
}

func startDaemon(ctx context.Context, srv *serve.Server) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	d := &daemon{
		base: "http://" + ln.Addr().String(),
		// One connection, reused: the client is a single closed-loop
		// controller.
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		cancel: cancel,
		done:   make(chan error, 1),
	}
	go func() { d.done <- srv.Serve(ctx, ln) }()
	return d, nil
}

// stop shuts the daemon down and waits for it.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	d.cancel()
	return <-d.done
}

// do sends one JSON request and decodes a 200 reply into out.
func (d *daemon) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

// reply is an op's outcome as the client saw it.
type reply struct {
	latency time.Duration
	metrics serve.Metrics
}

// drive runs the closed loop: each operation is sent when the previous
// reply has arrived. Traced runs record a span per request.
func drive(d *daemon, name string, ops []op, tr *tracer, check func(error)) []reply {
	replies := make([]reply, len(ops))
	for i, o := range ops {
		var m serve.Metrics
		var err error
		send := func() {
			if o.whatIf {
				var resp map[string]serve.Metrics
				if err = d.do(http.MethodPost, "/v1/topologies/"+name+"/whatif", o.ev, &resp); err == nil {
					m = resp["metrics"]
				}
			} else {
				var resp serve.EventsResponse
				if err = d.do(http.MethodPost, "/v1/topologies/"+name+"/events", serve.EventsRequest{Events: []serve.Event{o.ev}}, &resp); err == nil {
					m = resp.Metrics
				}
			}
		}
		start := time.Now()
		if tr != nil {
			tr.timed("serve/"+name, "serve.request."+o.class, 0, send)
		} else {
			send()
		}
		replies[i] = reply{latency: time.Since(start), metrics: m}
		check(err)
	}
	return replies
}

// finalState applies the stream's committed events to the initial
// weights and demands.
func (in *serveInputs) finalState(ops []op) ([]float64, *spef.Demands, []int, error) {
	w := append([]float64(nil), in.weights...)
	vol := map[[2]int]float64{}
	isDown := map[int]bool{}
	for _, o := range ops {
		switch o.class {
		case "set-weight":
			w[o.ev.Link] = o.ev.Weight
		case "set-demand":
			vol[[2]int{o.ev.Src, o.ev.Dst}] = o.ev.Volume
		case "link-down":
			isDown[o.ev.Link] = true
		case "link-up":
			delete(isDown, o.ev.Link)
		}
	}
	d := spef.NewDemands(in.net)
	for s := 0; s < in.net.NumNodes(); s++ {
		for t := 0; t < in.net.NumNodes(); t++ {
			v, ok := vol[[2]int{s, t}]
			if !ok {
				v = in.dem.At(s, t)
			}
			if v > 0 {
				if err := d.Add(s, t, v); err != nil {
					return nil, nil, nil, err
				}
			}
		}
	}
	var down []int
	for l := range w {
		if isDown[l] {
			down = append(down, l)
		}
	}
	return w, d, down, nil
}

// verifyFinal checks the daemon's metrics after the stream against a
// fresh engine built on the final weights, demands and down set, bit
// for bit.
func (in *serveInputs) verifyFinal(d *daemon, name string, ops []op) error {
	var got serve.MetricsResponse
	if err := d.do(http.MethodGet, "/v1/topologies/"+name+"/metrics", nil, &got); err != nil {
		return err
	}
	w, dem, down, err := in.finalState(ops)
	if err != nil {
		return err
	}
	fresh, err := spef.NewDeltaEngine(in.net, dem, w)
	if err != nil {
		return err
	}
	for _, l := range down {
		if err := fresh.LinkDown(l); err != nil {
			return err
		}
	}
	want := fresh.Metrics()
	return sameBits("serve final metrics (fortz, mlu, utility)",
		[]float64{float64(got.Metrics.Fortz), float64(got.Metrics.MLU), float64(got.Metrics.Utility)},
		[]float64{want.Cost, want.MLU, want.Utility})
}

// latencies splits the replies' latencies into the event and what-if
// classes, in milliseconds.
func latencies(ops []op, replies []reply) (events, whatifs []float64) {
	for i, o := range ops {
		ms := float64(replies[i].latency) / float64(time.Millisecond)
		if o.whatIf {
			whatifs = append(whatifs, ms)
		} else {
			events = append(events, ms)
		}
	}
	return events, whatifs
}

// serveSession drives one fresh stream against a loaded instance and
// checks every reply and the final state.
func serveSession(ctx context.Context, r *run, in *serveInputs, name string, ops []op, tr *tracer) ([]reply, error) {
	d, err := startDaemon(ctx, in.srv)
	if err != nil {
		return nil, err
	}
	replies := drive(d, name, ops, tr, r.check)
	r.check(in.verifyFinal(d, name, ops))
	return replies, d.stop()
}

// serveTraced drives the stream untraced (for the p99s), again on a
// second instance with a span per request (for the tracing overhead),
// and replays it on a DeltaEngine directly (for the delta layer's
// share of each request).
func serveTraced(ctx context.Context, r *run, in *serveInputs) error {
	ops := in.stream(r.cfg.seed, r.cfg.serveOps)
	replies, err := serveSession(ctx, r, in, serveName, ops, nil)
	if err != nil {
		return err
	}
	events, whatifs := latencies(ops, replies)
	r.set("serve.event_p99_ms", quantile(events, 0.99), "ms")
	r.set("serve.whatif_p99_ms", quantile(whatifs, 0.99), "ms")

	// The same stream on a second, traced instance: the difference is
	// the tracing overhead per request.
	if err := in.srv.Load(serve.LoadRequest{Name: serveName + "-traced", Topology: in.spec}); err != nil {
		return err
	}
	traced, err := serveSession(ctx, r, in, serveName+"-traced", ops, r.tr)
	if err != nil {
		return err
	}
	var plain, withSpans []float64
	for i := range ops {
		plain = append(plain, float64(replies[i].latency)/float64(time.Microsecond))
		withSpans = append(withSpans, float64(traced[i].latency)/float64(time.Microsecond))
	}
	r.set("bench.trace_overhead_us", quantile(withSpans, 0.5)-quantile(plain, 0.5), "us")

	// The identical stream replayed on a DeltaEngine directly: the
	// delta layer's share of each request, and a bitwise check of every
	// reply the daemon sent.
	perClass, footprint, err := replayDelta(in, ops, replies, r.check)
	if err != nil {
		return err
	}
	var evDelta, wiDelta []float64
	for _, class := range []string{"set-weight", "set-demand", "link-down", "link-up", "whatif-weight", "whatif-link-down"} {
		r.set("delta."+strings.ReplaceAll(class, "-", "_")+"_us", quantile(perClass[class], 0.5), "us")
		if class == "whatif-weight" || class == "whatif-link-down" {
			wiDelta = append(wiDelta, perClass[class]...)
		} else {
			evDelta = append(evDelta, perClass[class]...)
		}
	}
	r.set("serve.event_overhead_us", 1000*quantile(events, 0.5)-quantile(evDelta, 0.5), "us")
	r.set("serve.whatif_overhead_us", 1000*quantile(whatifs, 0.5)-quantile(wiDelta, 0.5), "us")
	r.set("delta.footprint_mb", float64(footprint)/(1<<20), "MB")
	return nil
}

// replayDelta replays the stream on a fresh DeltaEngine, timing each
// call in microseconds per class, and checks each result against the
// daemon's reply bit for bit.
func replayDelta(in *serveInputs, ops []op, replies []reply, check func(error)) (map[string][]float64, int64, error) {
	eng, err := spef.NewDeltaEngine(in.net, in.dem, nil)
	if err != nil {
		return nil, 0, err
	}
	scratch := eng.NewScratch()
	perClass := map[string][]float64{}
	for i, o := range ops {
		var m spef.DeltaMetrics
		start := time.Now()
		switch o.class {
		case "set-weight":
			err = eng.SetWeight(o.ev.Link, o.ev.Weight)
		case "set-demand":
			err = eng.SetDemand(o.ev.Src, o.ev.Dst, o.ev.Volume)
		case "link-down":
			err = eng.LinkDown(o.ev.Link)
		case "link-up":
			err = eng.LinkUp(o.ev.Link)
		case "whatif-weight":
			m, err = eng.WhatIfWeight(scratch, o.ev.Link, o.ev.Weight)
		case "whatif-link-down":
			m, err = eng.WhatIfLinkDown(o.ev.Link)
		}
		if !o.whatIf && err == nil {
			m = eng.Metrics()
		}
		perClass[o.class] = append(perClass[o.class], float64(time.Since(start))/float64(time.Microsecond))
		if err != nil {
			check(fmt.Errorf("delta replay op %d (%s): %w", i, o.class, err))
			continue
		}
		got := replies[i].metrics
		check(sameBits(fmt.Sprintf("delta replay op %d (%s)", i, o.class),
			[]float64{float64(got.Fortz), float64(got.MLU), float64(got.Utility)},
			[]float64{m.Cost, m.MLU, m.Utility}))
	}
	return perClass, eng.Footprint(), nil
}
