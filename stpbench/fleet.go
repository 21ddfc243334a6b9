package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"seqtx/internal/obs"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
	"seqtx/internal/wire"
)

// fleetSpec describes one live-session fleet workload: a closed loop
// that keeps inFlight sessions running over one mux and one transport,
// starting the next session in a slot as soon as the previous one ends.
// A round is roundSessions sessions over the same generated tapes; the
// run repeats whole rounds until the measuring time has passed.
type fleetSpec struct {
	proto         string
	params        registry.Params
	udp           bool
	engine        wire.Engine
	impair        string
	inFlight      int
	roundSessions int
	// guard is the per-session context deadline: the hang guard that
	// ends a session the event-loop engine has wedged (see README).
	guard time.Duration
	// tape generates one session's input from the workload's RNG.
	tape func(rng *rand.Rand) (seq.Seq, error)
}

func runInprocSaw(o options) (result, error) {
	f := fleetSpec{
		proto:         "alpha",
		params:        registry.Params{M: 8},
		impair:        "none",
		inFlight:      256,
		roundSessions: 4096,
		guard:         2 * time.Second,
		tape:          func(rng *rand.Rand) (seq.Seq, error) { return seq.RandomRepetitionFree(rng, 8, 6) },
	}
	if o.small {
		f.inFlight, f.roundSessions = 16, 64
	}
	return runFleet(f, o)
}

func runUDPWindowLossy(o options) (result, error) {
	return runFleet(udpWindowLossy(o, wire.EngineLoop, 16), o)
}

// runUDPWindowLossyGoroutine is udp-window-lossy on the goroutine
// engine, which the event-loop engine's timer fault (see README) does not
// reach, with enough sessions in flight to keep both cores busy: its rate
// is the data plane's capacity, where udp-window-lossy's is paced by the
// 1 ms tick.
func runUDPWindowLossyGoroutine(o options) (result, error) {
	return runFleet(udpWindowLossy(o, wire.EngineGoroutine, 128), o)
}

// udpWindowLossy is selective repeat over loopback UDP with i.i.d. loss
// on S→R; a round is 16 sessions per in-flight slot.

func udpWindowLossy(o options, engine wire.Engine, inFlight int) fleetSpec {
	const m, items = 8, 64
	f := fleetSpec{
		proto:         "selrepeat",
		params:        registry.Params{M: m, Window: 16},
		udp:           true,
		engine:        engine,
		impair:        "iid-loss(p=0.05)",
		inFlight:      inFlight,
		roundSessions: 16 * inFlight,
		guard:         5 * time.Second,
		// A ramp mod m from a seeded starting item.
		tape: func(rng *rand.Rand) (seq.Seq, error) {
			off := rng.Intn(m)
			x := make(seq.Seq, items)
			for i := range x {
				x[i] = seq.Item((off + i) % m)
			}
			return x, nil
		},
	}
	if o.small {
		f.inFlight, f.roundSessions = 4, 16
	}
	return f
}

// fleetStack is one live transport stack: the mux over an impairment
// stage over a raw transport, as stpload composes it.
type fleetStack struct {
	mux   *wire.Mux
	reg   *obs.Registry
	trace *fleetTrace // nil when untraced
}

// buildStack binds the transport and builds the mux. Traced stacks get
// a transport wrapper on each side of the impairment stage.
func (f fleetSpec) buildStack(seed int64, traced bool) (*fleetStack, error) {
	st := &fleetStack{}
	if traced {
		st.reg = obs.NewRegistry()
		st.trace = &fleetTrace{}
	}
	var raw wire.Transport
	if f.udp {
		u, err := wire.NewUDP(st.reg)
		if err != nil {
			return nil, err
		}
		raw = u
	} else {
		raw = wire.NewInproc(0, st.reg)
	}
	opts, err := wire.ImpairSpec(f.impair, seed)
	if err != nil {
		raw.Close()
		return nil, err
	}
	inner := raw
	if traced {
		st.trace.raw = &tracedTransport{Transport: raw}
		inner = st.trace.raw
	}
	im, err := wire.NewImpairment(inner, opts, st.reg)
	if err != nil {
		raw.Close()
		return nil, err
	}
	var outer wire.Transport = im
	if traced {
		st.trace.impaired = &tracedTransport{Transport: im}
		outer = st.trace.impaired
	}
	st.mux = wire.NewMuxConfig(outer, wire.MuxConfig{Obs: st.reg, Engine: f.engine})
	return st, nil
}

// closeMux closes the mux, giving up after a grace period: a worker the
// engine has wedged must not keep the process from reporting.
func closeMux(m *wire.Mux) {
	done := make(chan struct{})
	go func() {
		m.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		fmt.Fprintln(os.Stderr, "stpbench: mux close timed out; a loop worker is still wedged")
	}
}

// fleetTally accumulates the outcome of a fleet's sessions.
type fleetTally struct {
	mu         sync.Mutex
	sessions   int
	completed  int
	stalled    int
	otherFail  int
	violations int
	mismatches int
	items      int64
	framesTx   int64
	acksTx     int64
	retx       int64
	latencyMs  []float64
}

// fleetRun is the closed loop over one stack.
type fleetRun struct {
	spec   fleetSpec
	stack  *fleetStack
	tapes  []seq.Seq
	seeds  []int64
	nextID atomic.Uint64
}

// round runs n sessions (tapes 0..n-1) with at most inFlight at a time.
func (r *fleetRun) round(n int, t *fleetTally) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	// One slot per client, so every client can report and return.
	errs := make(chan error, r.spec.inFlight)
	slots := r.spec.inFlight
	if slots > n {
		slots = n
	}
	for c := 0; c < slots; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= n {
					return
				}
				if err := r.session(j, t); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// session runs one transfer to its end and records the outcome.
func (r *fleetRun) session(j int, t *fleetTally) error {
	x := r.tapes[j]
	s, rc, err := registry.Pair(r.spec.proto, r.spec.params, x)
	if err != nil {
		return err
	}
	var st *sessionTrace
	if r.stack.trace != nil {
		st = newSessionTrace(wire.DefaultTick)
		s, rc = st.wrapSender(s), st.wrapReceiver(rc)
	}
	start := time.Now()
	sess, err := r.stack.mux.NewSession(wire.SessionConfig{
		ID:       r.nextID.Add(1),
		Sender:   s,
		Receiver: rc,
		Input:    x,
		Seed:     r.seeds[j],
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), r.spec.guard)
	rep := sess.Run(ctx)
	cancel()
	lat := time.Since(start)
	// The engine carries the context deadline on its own timer heap and
	// may end the session a moment before the context notices, so the
	// guard is judged by elapsed time.
	guarded := lat >= r.spec.guard

	t.mu.Lock()
	defer t.mu.Unlock()
	t.sessions++
	t.latencyMs = append(t.latencyMs, float64(lat)/1e6)
	t.items += int64(len(rep.Output))
	t.framesTx += int64(rep.FramesTx)
	t.acksTx += int64(rep.AcksTx)
	t.retx += int64(rep.Retransmits)
	switch {
	case rep.SafetyViolation != nil:
		t.violations++
		fmt.Fprintf(os.Stderr, "stpbench: session %d: %v\n", rep.ID, rep.SafetyViolation)
	case rep.Complete && rep.Output.Equal(x):
		t.completed++
	case rep.Complete:
		t.mismatches++
		fmt.Fprintf(os.Stderr, "stpbench: session %d: output %s, tape %s\n", rep.ID, rep.Output, x)
	case guarded:
		t.stalled++
	default:
		t.otherFail++
		fmt.Fprintf(os.Stderr, "stpbench: session %d ended incomplete after %v, before its guard\n", rep.ID, lat)
	}
	if st != nil {
		r.stack.trace.collect(st)
	}
	return nil
}

// fleetPass is one measured pass of a fleet: setup, then whole rounds
// until the measuring time has passed.
type fleetPass struct {
	setup setupTime
	warm  *fleetTally // the set-up's warm-up sessions
	tally *fleetTally
	measured
	roundItems []float64 // items delivered in each round
	stack      *fleetStack
}

func (f fleetSpec) pass(o options, traced bool) (*fleetPass, error) {
	rng := rand.New(rand.NewSource(o.seed))
	run := &fleetRun{spec: f}
	warm := &fleetTally{}
	setup, st, err := timeSetup(func() (*fleetStack, error) {
		// Set-up: generate the round's tapes and session seeds, bind the
		// transport, build the mux, and warm it with one session per slot
		// (interning the protocol tables and filling the buffer pools).
		run.tapes = make([]seq.Seq, f.roundSessions)
		run.seeds = make([]int64, f.roundSessions)
		rng.Seed(o.seed)
		for j := range run.tapes {
			x, err := f.tape(rng)
			if err != nil {
				return nil, err
			}
			run.tapes[j] = x
			run.seeds[j] = rng.Int63() | 1
		}
		st, err := f.buildStack(o.seed, traced)
		if err != nil {
			return nil, err
		}
		run.stack = st
		if err := run.round(f.inFlight, warm); err != nil {
			closeMux(st.mux)
			return nil, err
		}
		return st, nil
	}, func(st *fleetStack) { closeMux(st.mux) })
	if err != nil {
		return nil, err
	}
	defer closeMux(st.mux)
	if st.trace != nil {
		st.trace.reset()
		st.reg.Reset()
	}

	p := &fleetPass{setup: setup, warm: warm, tally: &fleetTally{}, stack: st}
	p.measured, err = measure(o.seconds, false, func() (float64, error) {
		completed, items := p.tally.completed, p.tally.items
		if err := run.round(f.roundSessions, p.tally); err != nil {
			return 0, err
		}
		p.roundItems = append(p.roundItems, float64(p.tally.items-items))
		return float64(p.tally.completed - completed), nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

func runFleet(f fleetSpec, o options) (result, error) {
	base, err := f.pass(o, false)
	if err != nil {
		return result{}, err
	}
	res := base.result()
	if !o.trace {
		res.Metrics = base.endToEnd()
		return res, nil
	}
	traced, err := f.pass(o, true)
	if err != nil {
		return result{}, err
	}
	tres := traced.result()
	res.Correct = res.Correct && tres.Correct
	res.Attempted += tres.Attempted
	res.Failed += tres.Failed
	res.Metrics = traced.perLayer()
	overhead(res.Metrics, base.rate(), traced.rate())
	return res, nil
}

// result folds the tallies of the warm-up and the measured rounds:
// stalled sessions (and any other incomplete one) are failed
// operations; a safety violation or an output that differs from the
// generated tape makes the run incorrect.
func (p *fleetPass) result() result {
	res := result{Correct: true}
	for _, t := range []*fleetTally{p.warm, p.tally} {
		res.Correct = res.Correct && t.violations == 0 && t.mismatches == 0
		res.Attempted += t.sessions
		res.Failed += t.sessions - t.completed
	}
	return res
}

func (p *fleetPass) endToEnd() metrics {
	m := metrics{}
	p.setup.set(m)
	// Sessions per second is the median round's completed sessions over
	// its wall time; items and CPU per item likewise per round.
	m.set("sessions_per_s", p.rate(), "1/s")
	items := make([]float64, len(p.rounds))
	cpu := make([]float64, 0, len(p.rounds))
	for i, r := range p.rounds {
		items[i] = p.roundItems[i] / r.wall.Seconds()
		if p.roundItems[i] > 0 {
			cpu = append(cpu, float64(r.cpu.Nanoseconds())/1e3/p.roundItems[i])
		}
	}
	m.set("items_per_s", median(items), "1/s")
	lat := summarize(p.tally.latencyMs)
	m.set("session_p50_ms", lat.P50, "ms")
	if lat.HasP99 {
		m.set("session_p99_ms", lat.P99, "ms")
	}
	if len(cpu) > 0 {
		m.set("cpu_us_per_item", median(cpu), "us")
	}
	m.set("rss_peak_mb", peakRSSMiB(), "MiB")
	return m
}

func (p *fleetPass) perLayer() metrics {
	t := p.tally
	m := metrics{}
	items := float64(t.items)
	if items == 0 {
		items = 1
	}
	roundWall, roundCPU := p.busy()
	p.stack.trace.setMetrics(m, items, roundWall)

	if h := p.stack.reg.Histogram("wire_batch_frames", obs.BatchBuckets); h.Count() > 0 {
		m.set("wire.batch_frames_mean", h.Sum()/float64(h.Count()), "frames")
	}
	m.set("wire.frames_per_item", float64(t.framesTx+t.acksTx)/items, "frames")
	m.set("wire.retransmits_per_item", float64(t.retx)/items, "frames")
	for _, cause := range []string{"impair", "inbox_full", "outbox_full", "backpressure"} {
		n := p.stack.reg.Counter(`wire_frames_dropped_total{cause="` + cause + `"}`).Value()
		if cause == "impair" {
			// The channel-model stage counts its own drops apart from the
			// preset pipeline's; both are the impairment stage's.
			n += p.stack.reg.Counter("wire_chanmodel_drop_total").Value()
		}
		m.set("wire.drops_per_item."+cause, float64(n)/items, "frames")
	}
	m.set("engine.cpu_util", roundCPU.Seconds()/(roundWall.Seconds()*float64(runtime.GOMAXPROCS(0))), "frac")
	m.set("engine.stalled_sessions", float64(p.warm.stalled+t.stalled), "count")
	setRuntimeMetrics(m, p.measured, float64(t.items))
	return m
}
