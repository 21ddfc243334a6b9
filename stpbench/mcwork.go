package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"

	"seqtx/internal/channel"
	"seqtx/internal/mc"
	"seqtx/internal/obs"
	"seqtx/internal/protocol"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
)

// mcSpec is one model-checking instance: exhaustive BFS of a protocol
// on a channel kind from one input, to a fixed depth.
type mcSpec struct {
	proto string
	m     int
	kind  channel.Kind
	depth int
	// warmDepth is the shallower exploration the set-up runs once.
	warmDepth int
}

// mcWorkload is alpha with m=3 on the del channel. At depth 20 the
// explored graph has about 14k states; the default state cap (1<<20)
// is far above that, so only the depth bound ends the search.
var mcWorkload = mcSpec{proto: "alpha", m: 3, kind: channel.KindDel, depth: 20, warmDepth: 14}

// mcInput is the workload's tape: a seeded permutation of 0..m-1.
func mcInput(seed int64, m int) seq.Seq {
	rng := rand.New(rand.NewSource(seed))
	x := make(seq.Seq, m)
	for i, v := range rng.Perm(m) {
		x[i] = seq.Item(v)
	}
	return x
}

// refResult is what the reference search reports.
type refResult struct {
	States      int
	Depth       int
	Truncated   bool
	Violation   bool
	Transitions int // actions applied: one sim.World step each
}

// referenceBFS explores (spec, input, kind) breadth-first to maxDepth
// with nothing but the public sim.World API — Enabled, Apply, Clone and
// the string Key — deduplicating in a plain map. It is written apart
// from internal/mc (no binary keys, no worker pool, no level merge) so
// that agreeing with mc.Explore means something. It stops only at the
// depth bound: callers pick instances small enough to hold in memory.
func referenceBFS(spec protocol.Spec, input seq.Seq, kind channel.Kind, maxDepth int) (refResult, error) {
	link, err := channel.NewLinkOfKind(kind)
	if err != nil {
		return refResult{}, err
	}
	root, err := sim.New(spec, input, link)
	if err != nil {
		return refResult{}, err
	}
	seen := map[string]bool{root.Key(): true}
	res := refResult{States: 1}
	level := []*sim.World{root}
	for depth := 0; len(level) > 0; depth++ {
		if depth == maxDepth {
			res.Truncated = true
			break
		}
		var next []*sim.World
		for _, w := range level {
			for _, act := range w.Enabled() {
				c := w.Clone()
				if err := c.Apply(act); err != nil {
					return res, fmt.Errorf("reference: applying %s: %w", act, err)
				}
				res.Transitions++
				if c.SafetyViolation != nil {
					res.Violation = true
				}
				k := c.Key()
				if seen[k] {
					continue
				}
				seen[k] = true
				res.States++
				res.Depth = depth + 1
				next = append(next, c)
			}
		}
		level = next
	}
	return res, nil
}

// agree reports how an mc.Explore result differs from the reference.
func (r refResult) agree(got *mc.ExploreResult) error {
	if got.States != r.States || got.Depth != r.Depth || got.Truncated != r.Truncated ||
		(got.Violation != nil) != r.Violation {
		return fmt.Errorf("mc.Explore states=%d depth=%d truncated=%v violation=%v; reference states=%d depth=%d truncated=%v violation=%v",
			got.States, got.Depth, got.Truncated, got.Violation != nil,
			r.States, r.Depth, r.Truncated, r.Violation)
	}
	return nil
}

// mcPass is one measured pass: whole explorations until the measuring
// time has passed.
type mcPass struct {
	setup setupTime
	measured
	last     *mc.ExploreResult
	mismatch bool // a round disagreed with the first one
	reg      *obs.Registry
	steps    *stepStats
	workers  int
}

// pass measures explorations of the instance, one per round.
func (s mcSpec) pass(o options, traced bool) (*mcPass, error) {
	p := &mcPass{workers: runtime.GOMAXPROCS(0)}
	x := mcInput(o.seed, s.m)
	setup, spec, err := timeSetup(func() (protocol.Spec, error) {
		// Set-up: build the protocol (interning its message tables) and
		// run one shallow exploration to size the heap and pools.
		spec, err := registry.Protocol(s.proto, registry.Params{M: s.m})
		if err != nil {
			return spec, err
		}
		_, err = mc.Explore(spec, x, s.kind, mc.ExploreConfig{MaxDepth: s.warmDepth, EngineConfig: mc.EngineConfig{Workers: p.workers}})
		return spec, err
	}, func(protocol.Spec) {})
	if err != nil {
		return nil, err
	}
	p.setup = setup
	cfg := mc.ExploreConfig{MaxDepth: s.depth, EngineConfig: mc.EngineConfig{Workers: p.workers}}
	if traced {
		p.reg = obs.NewRegistry()
		p.steps = &stepStats{}
		spec = tracedSpec(spec, p.steps)
		cfg.Obs = p.reg
	}
	p.measured, err = measure(o.seconds, true, func() (float64, error) {
		res, err := mc.Explore(spec, x, s.kind, cfg)
		if err != nil {
			return 0, err
		}
		if p.last != nil && (res.States != p.last.States || res.Depth != p.last.Depth ||
			res.Truncated != p.last.Truncated || (res.Violation != nil) != (p.last.Violation != nil)) {
			p.mismatch = true
		}
		p.last = res
		return 1, nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

func runMCExplore(o options) (result, error) {
	s := mcWorkload
	if o.small {
		s.depth, s.warmDepth = 12, 8
	}
	base, err := s.pass(o, false)
	if err != nil {
		return result{}, err
	}
	rssMiB := peakRSSMiB()

	// The reference search runs after the measured time: it gives the
	// verdict every exploration is checked against, and the instance's
	// transition count — the unit of work, one sim.World step each.
	spec, err := registry.Protocol(s.proto, registry.Params{M: s.m})
	if err != nil {
		return result{}, err
	}
	ref, err := referenceBFS(spec, mcInput(o.seed, s.m), s.kind, s.depth)
	if err != nil {
		return result{}, err
	}
	perRound := float64(ref.Transitions)

	res := result{Correct: true, Attempted: len(base.rounds)}
	fail := func(format string, args ...any) {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "mc-explore: "+format+"\n", args...)
	}
	if err := ref.agree(base.last); err != nil {
		fail("%v", err)
	}
	if base.mismatch {
		fail("explorations of one instance disagreed")
	}
	// The paper's verdict: alpha is safe on the del channel.
	if ref.Violation {
		fail("the reference search found a violation of %s on %s", s.proto, s.kind)
	}

	if !o.trace {
		m := metrics{}
		base.setup.set(m)
		// An item is one transition (one sim.World step), the unit
		// cpu_us_per_item shares; mc_states_per_s counts distinct states.
		m.set("items_per_s", base.rate()*perRound, "1/s")
		m.set("mc_states_per_s", base.rate()*float64(ref.States), "1/s")
		m.set("cpu_us_per_item", base.cpuPerWork()/perRound, "us")
		m.set("rss_peak_mb", rssMiB, "MiB")
		res.Metrics = m
		return res, nil
	}

	traced, err := s.pass(o, true)
	if err != nil {
		return result{}, err
	}
	res.Attempted += len(traced.rounds)
	if err := ref.agree(traced.last); err != nil {
		fail("traced run: %v", err)
	}
	if traced.mismatch {
		fail("traced explorations of one instance disagreed")
	}
	m := metrics{}
	tsteps := traced.work() * perRound
	states := float64(len(traced.rounds)) * float64(ref.States)
	m.set("sim.steps", float64(ref.Transitions), "count")
	m.set("mc.states", float64(traced.last.States), "count")
	m.set("mc.depth", float64(traced.last.Depth), "count")
	n := traced.steps.steps.Load()
	stepNs := float64(traced.steps.ns.Load())
	if n > 0 {
		m.set("protocol.step_ns", stepNs/float64(n), "ns")
	}
	m.set("protocol.steps_per_item", float64(n)/tsteps, "count")
	hits := traced.reg.Counter("mc_explore_dedup_hits_total").Value()
	miss := traced.reg.Counter("mc_explore_dedup_misses_total").Value()
	if hits+miss > 0 {
		m.set("mc.dedup_hit_frac", float64(hits)/float64(hits+miss), "frac")
	}
	var maxExp, sumExp float64
	for w := 0; w < traced.workers; w++ {
		v := float64(traced.reg.Counter(fmt.Sprintf(`mc_worker_expansions_total{scope="explore",worker="%d"}`, w)).Value())
		sumExp += v
		if v > maxExp {
			maxExp = v
		}
	}
	if sumExp > 0 {
		m.set("mc.worker_imbalance", maxExp/(sumExp/float64(traced.workers)), "ratio")
	}
	// Split wall time per state: the protocol's share is its Step time
	// spread over the workers that ran it; the rest is the engine's own
	// (cloning, keys, dedup, level merge).
	roundWall, _ := traced.busy()
	wallNs := float64(roundWall.Nanoseconds()) / states
	protoNs := stepNs / float64(traced.workers) / states
	m.set("mc.protocol_ns_per_state", protoNs, "ns")
	m.set("mc.engine_ns_per_state", wallNs-protoNs, "ns")
	m.set("mc.alloc_b_per_state", float64(traced.rt.allocBytes)/states, "B")
	setRuntimeMetrics(m, traced.measured, tsteps)
	overhead(m, base.rate(), traced.rate())
	res.Metrics = m
	return res, nil
}
