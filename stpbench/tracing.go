package main

import (
	"sync"
	"sync/atomic"
	"time"

	"seqtx/internal/channel"
	"seqtx/internal/msg"
	"seqtx/internal/protocol"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
	"seqtx/internal/trace"
	"seqtx/internal/wire"
)

// The traced run measures each layer from outside the program: every
// wrapper here forwards each method the layer uses and times the calls
// into it. None of them changes what the wrapped value does.

// stepStats counts protocol Step calls and the time spent in them. The
// counters are atomic because the model checker and the prob estimator
// step clones of one process from several workers.
type stepStats struct {
	steps atomic.Int64
	ns    atomic.Int64
}

func (s *stepStats) note(t0, t1 int64) {
	s.steps.Add(1)
	s.ns.Add(t1 - t0)
}

// clock is a monotonic nanosecond reading.
var epoch = time.Now()

func clock() int64 { return int64(time.Since(epoch)) }

// stepHook, when set on a traced process, sees every message the
// process sends and every message it receives on direction dir, with
// the time its Step returned or began.
type stepHook interface {
	sent(dir channel.Dir, m msg.Msg, at int64)
	received(dir channel.Dir, m msg.Msg, at int64)
	ticked(at int64)
}

// tracedSender wraps a protocol.Sender, timing Step.
type tracedSender struct {
	protocol.Sender
	stats *stepStats
	hook  stepHook
}

func (t *tracedSender) Step(ev protocol.Event) []msg.Msg {
	t0 := clock()
	if t.hook != nil && ev.Kind == protocol.Recv {
		t.hook.received(channel.RToS, ev.Msg, t0)
	}
	sends := t.Sender.Step(ev)
	t1 := clock()
	t.stats.note(t0, t1)
	if t.hook != nil {
		for _, m := range sends {
			t.hook.sent(channel.SToR, m, t1)
		}
	}
	return sends
}

func (t *tracedSender) Clone() protocol.Sender {
	return &tracedSender{Sender: t.Sender.Clone(), stats: t.stats, hook: t.hook}
}

// EncodeKey forwards the binary state key, so the model checker keeps
// its fast path (and its state partition) through the wrapper.
func (t *tracedSender) EncodeKey(buf []byte) []byte { return protocol.AppendKey(buf, t.Sender) }

// tracedReceiver wraps a protocol.Receiver, timing Step.
type tracedReceiver struct {
	protocol.Receiver
	stats *stepStats
	hook  stepHook
}

func (t *tracedReceiver) Step(ev protocol.Event) ([]msg.Msg, seq.Seq) {
	t0 := clock()
	if t.hook != nil {
		if ev.Kind == protocol.Recv {
			t.hook.received(channel.SToR, ev.Msg, t0)
		} else {
			t.hook.ticked(t0)
		}
	}
	sends, writes := t.Receiver.Step(ev)
	t1 := clock()
	t.stats.note(t0, t1)
	if t.hook != nil {
		for _, m := range sends {
			t.hook.sent(channel.RToS, m, t1)
		}
	}
	return sends, writes
}

func (t *tracedReceiver) Clone() protocol.Receiver {
	return &tracedReceiver{Receiver: t.Receiver.Clone(), stats: t.stats, hook: t.hook}
}

func (t *tracedReceiver) EncodeKey(buf []byte) []byte { return protocol.AppendKey(buf, t.Receiver) }

// tracedSpec wraps a protocol.Spec so that every process it builds is
// traced into stats.
func tracedSpec(spec protocol.Spec, stats *stepStats) protocol.Spec {
	return protocol.Spec{
		Name:        spec.Name,
		Description: spec.Description,
		NewSender: func(x seq.Seq) (protocol.Sender, error) {
			s, err := spec.NewSender(x)
			if err != nil {
				return nil, err
			}
			return &tracedSender{Sender: s, stats: stats}, nil
		},
		NewReceiver: func() (protocol.Receiver, error) {
			r, err := spec.NewReceiver()
			if err != nil {
				return nil, err
			}
			return &tracedReceiver{Receiver: r, stats: stats}, nil
		},
	}
}

// sessionTrace follows one live session; the fleet collects it after
// Run returns. The event-loop engine steps both processes on the one
// worker the session is pinned to, but the goroutine engine steps each
// on its own goroutine, so the hooks lock.
type sessionTrace struct {
	stats    stepStats
	mu       sync.Mutex
	tick     int64
	lastTick int64
	// inFlight holds, per direction and message value, when a Step last
	// returned it: the start of its delivery span (outbox, codec,
	// transport, route, inbox, ready queue) up to the Step that
	// consumes it.
	inFlight   [2]map[msg.Msg]int64
	deliverUs  []float64
	latenessUs []float64
}

func newSessionTrace(tick time.Duration) *sessionTrace {
	return &sessionTrace{
		tick:     int64(tick),
		inFlight: [2]map[msg.Msg]int64{make(map[msg.Msg]int64), make(map[msg.Msg]int64)},
	}
}

func (s *sessionTrace) wrapSender(p protocol.Sender) protocol.Sender {
	return &tracedSender{Sender: p, stats: &s.stats, hook: s}
}

func (s *sessionTrace) wrapReceiver(p protocol.Receiver) protocol.Receiver {
	return &tracedReceiver{Receiver: p, stats: &s.stats, hook: s}
}

func (s *sessionTrace) sent(dir channel.Dir, m msg.Msg, at int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inFlight[dir-1][m] = at
}

func (s *sessionTrace) received(dir channel.Dir, m msg.Msg, at int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t0, ok := s.inFlight[dir-1][m]; ok {
		s.deliverUs = append(s.deliverUs, float64(at-t0)/1e3)
		delete(s.inFlight[dir-1], m)
	}
}

func (s *sessionTrace) ticked(at int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lastTick != 0 {
		s.latenessUs = append(s.latenessUs, float64(at-s.lastTick-s.tick)/1e3)
	}
	s.lastTick = at
}

// tracedTransport wraps a wire.Transport, timing Send and SendBatch. It
// implements wire.BatchSender like every transport it wraps, so the mux
// and the impairment stage take the same batch path as without it.
type tracedTransport struct {
	wire.Transport
	calls atomic.Int64
	ns    atomic.Int64
}

func (t *tracedTransport) Send(from wire.End, frame []byte) error {
	t0 := clock()
	err := t.Transport.Send(from, frame)
	t.note(t0)
	return err
}

// SendBatch forwards to the wrapped transport's batch path: every
// transport the fleets wrap (Impairment, Inproc, UDP) has one.
func (t *tracedTransport) SendBatch(from wire.End, frames [][]byte) error {
	t0 := clock()
	err := t.Transport.(wire.BatchSender).SendBatch(from, frames)
	t.note(t0)
	return err
}

func (t *tracedTransport) note(t0 int64) {
	t.ns.Add(clock() - t0)
	t.calls.Add(1)
}

func (t *tracedTransport) reset() {
	t.calls.Store(0)
	t.ns.Store(0)
}

// fleetTrace gathers the per-layer figures of a traced fleet.
type fleetTrace struct {
	raw      *tracedTransport // beneath the impairment stage
	impaired *tracedTransport // above it, as the mux sees it

	mu         sync.Mutex
	steps      int64
	stepNs     int64
	deliverUs  []float64
	latenessUs []float64
}

// reset drops what the set-up's warm-up recorded.
func (f *fleetTrace) reset() {
	f.raw.reset()
	f.impaired.reset()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.steps, f.stepNs = 0, 0
	f.deliverUs, f.latenessUs = nil, nil
}

func (f *fleetTrace) collect(s *sessionTrace) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.steps += s.stats.steps.Load()
	f.stepNs += s.stats.ns.Load()
	f.deliverUs = append(f.deliverUs, s.deliverUs...)
	f.latenessUs = append(f.latenessUs, s.latenessUs...)
}

func (f *fleetTrace) setMetrics(m metrics, items float64, wall time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.steps > 0 {
		m.set("protocol.step_ns", float64(f.stepNs)/float64(f.steps), "ns")
	}
	m.set("protocol.steps_per_item", float64(f.steps)/items, "count")
	if d := summarize(f.deliverUs); d.N > 0 {
		m.set("wire.delivery_us_p50", d.P50, "us")
		if d.HasP99 {
			m.set("wire.delivery_us_p99", d.P99, "us")
		}
	}
	if l := summarize(f.latenessUs); l.N > 0 {
		m.set("engine.tick_lateness_us_p50", l.P50, "us")
		if l.HasP99 {
			m.set("engine.tick_lateness_us_p99", l.P99, "us")
		}
	}
	rawNs := f.raw.ns.Load()
	if n := f.raw.calls.Load(); n > 0 {
		m.set("transport.send_us_per_call", float64(rawNs)/float64(n)/1e3, "us")
	}
	m.set("transport.busy_frac", float64(rawNs)/float64(wall), "frac")
	if n := f.impaired.calls.Load(); n > 0 {
		m.set("impair.self_us_per_call", float64(f.impaired.ns.Load()-rawNs)/float64(n)/1e3, "us")
	}
}

// tracedAdversary wraps a sim.Adversary, timing Choose.
type tracedAdversary struct {
	sim.Adversary
	calls *atomic.Int64
	ns    *atomic.Int64
}

func (a *tracedAdversary) Choose(w *sim.World, enabled []trace.Action) trace.Action {
	t0 := clock()
	act := a.Adversary.Choose(w, enabled)
	a.ns.Add(clock() - t0)
	a.calls.Add(1)
	return act
}
