package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync/atomic"

	"seqtx/internal/chanmodel"
	"seqtx/internal/frontier"
	"seqtx/internal/prob"
	"seqtx/internal/registry"
	"seqtx/internal/seq"
	"seqtx/internal/sim"
)

// frontierConfig is the sim-frontier sweep: the protocols that complete
// on their verified-safe kinds, across the default 16-model grid (four
// families) at m = 4 and 8. afwz and hybrid are left out: they never
// retransmit data, so under the loss families they stall inside the
// step budget by design, and a stall here would count as a failure.
//
// The measured sweeps run on one worker. prob.Run starts and joins its
// workers once per cell, about every 2 ms here, so with more workers a
// round's wall time also holds each worker's wait for the others at
// those joins, a wait that on a shared host follows the other tenants'
// load rather than the program. The sweep at GOMAXPROCS workers runs
// once a run, for the determinism check.
func frontierConfig(seed int64, small bool) frontier.Config {
	cfg := frontier.Config{
		Protos:      []string{"alpha", "stenning", "selrepeat", "gobackn"},
		Ms:          []int{4, 8},
		Items:       4,
		Trials:      48,
		Seed:        seed,
		Parallelism: 1,
	}
	if small {
		cfg.Trials = 2
	}
	return cfg
}

// cellTally is the part of a frontier cell that must repeat exactly.
type cellTally struct {
	Proto, Model                                             string
	M, Window                                                int
	Trials, Completed, Stalled, Violations, Steps, Delivered int
}

func tallies(d *frontier.Doc) []cellTally {
	out := make([]cellTally, len(d.Cells))
	for i, c := range d.Cells {
		out[i] = cellTally{c.Proto, c.Model, c.M, c.Window, c.Trials, c.Completed, c.Stalled, c.Violations, c.Steps, c.Delivered}
	}
	return out
}

// frontierTotals sums a sweep's trial outcomes.
type frontierTotals struct {
	trials, stalled, violations, steps, delivered int
}

func totals(t []cellTally) frontierTotals {
	var s frontierTotals
	for _, c := range t {
		s.trials += c.Trials
		s.stalled += c.Stalled
		s.violations += c.Violations
		s.steps += c.Steps
		s.delivered += c.Delivered
	}
	return s
}

// checkBound verifies the frontier's structural bound in every cell: a
// stop-and-wait exchange delivers at most one item per 4-step cycle, so
// Delivered <= (Steps + 2·Trials)/4 however lucky the schedule.
func checkBound(t []cellTally) error {
	for _, c := range t {
		if 4*c.Delivered > c.Steps+2*c.Trials {
			return fmt.Errorf("%s × %s m=%d w=%d: delivered %d in %d steps over %d trials breaks the 4-step bound",
				c.Proto, c.Model, c.M, c.Window, c.Delivered, c.Steps, c.Trials)
		}
	}
	return nil
}

func runSimFrontier(o options) (result, error) {
	cfg := frontierConfig(o.seed, o.small)

	// Set-up: one sweep at a single trial per cell builds every protocol
	// and model (interning their tables) and sizes the heap.
	warm := cfg
	warm.Trials = 1
	setup, _, err := timeSetup(func() (*frontier.Doc, error) { return frontier.Run(warm) }, func(*frontier.Doc) {})
	if err != nil {
		return result{}, err
	}

	var first []cellTally
	mismatch := false
	base, err := measure(o.seconds, false, func() (float64, error) {
		doc, err := frontier.Run(cfg)
		if err != nil {
			return 0, err
		}
		t := tallies(doc)
		if first == nil {
			first = t
		} else if !slices.Equal(first, t) {
			mismatch = true
		}
		return float64(totals(t).steps), nil
	})
	if err != nil {
		return result{}, err
	}
	rssMiB := peakRSSMiB()
	rounds := len(base.rounds)

	tot := totals(first)
	res := result{Correct: true, Attempted: rounds * tot.trials, Failed: rounds * tot.stalled}
	fail := func(format string, args ...any) {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "sim-frontier: "+format+"\n", args...)
	}
	if mismatch {
		fail("sweeps with one seed disagreed")
	}
	if tot.violations > 0 {
		fail("%d prefix-safety violations", tot.violations)
	}
	if err := checkBound(first); err != nil {
		fail("%v", err)
	}
	// Determinism: the same sweep on GOMAXPROCS workers tallies
	// identically.
	par := cfg
	par.Parallelism = runtime.GOMAXPROCS(0)
	parDoc, err := frontier.Run(par)
	if err != nil {
		return result{}, err
	}
	if !slices.Equal(first, tallies(parDoc)) {
		fail("tallies differ between Parallelism 1 and %d", par.Parallelism)
	}

	if !o.trace {
		m := metrics{}
		setup.set(m)
		// An item is one scheduler step (one sim.World step), as in
		// mc-explore.
		m.set("items_per_s", base.rate(), "1/s")
		m.set("cpu_us_per_item", base.cpuPerWork(), "us")
		m.set("rss_peak_mb", rssMiB, "MiB")
		res.Metrics = m
		return res, nil
	}

	tr, err := tracedFrontier(parDoc, cfg, o.seconds)
	if err != nil {
		return result{}, err
	}
	res.Attempted += len(tr.rounds) * tot.trials
	res.Failed += len(tr.rounds) * tot.stalled
	if !slices.Equal(first, tr.tally) {
		fail("the traced sweep tallied differently")
	}
	m := metrics{}
	tsteps := tr.work()
	m.set("sim.steps", float64(tot.steps), "count")
	m.set("sim.trials", float64(tot.trials), "count")
	m.set("sim.delivered", float64(tot.delivered), "count")
	m.set("sim.ns_per_step", tr.cpuPerWork()*1e3, "ns")
	if n := tr.chooseCalls.Load(); n > 0 {
		m.set("chanmodel.choose_ns", float64(tr.chooseNs.Load())/float64(n), "ns")
	}
	n := tr.steps.steps.Load()
	if n > 0 {
		m.set("protocol.step_ns", float64(tr.steps.ns.Load())/float64(n), "ns")
	}
	m.set("protocol.steps_per_item", float64(n)/tsteps, "count")
	setRuntimeMetrics(m, tr.measured, tsteps)
	overhead(m, base.rate(), tr.rate())
	res.Metrics = m
	return res, nil
}

// tracedSweep is the traced pass of sim-frontier.
type tracedSweep struct {
	measured
	tally       []cellTally
	steps       stepStats
	chooseCalls atomic.Int64
	chooseNs    atomic.Int64
}

// tracedFrontier re-runs every cell of doc through prob.Run with the
// sweep's parallelism, each protocol wrapped by a traced spec and each
// trial's chanmodel adversary wrapped by a traced adversary (fed through
// prob.Config.NewAdversary), in whole sweeps until seconds have passed.
// The cell seeds follow frontier.Config.Seed's documented derivation.
func tracedFrontier(doc *frontier.Doc, cfg frontier.Config, seconds float64) (*tracedSweep, error) {
	tr := &tracedSweep{}
	var err error
	tr.measured, err = measure(seconds, false, func() (float64, error) {
		tally := make([]cellTally, len(doc.Cells))
		for i, c := range doc.Cells {
			t, err := tr.cell(cfg, i, c)
			if err != nil {
				return 0, err
			}
			tally[i] = t
		}
		tr.tally = tally
		return float64(totals(tally).steps), nil
	})
	return tr, err
}

func (tr *tracedSweep) cell(cfg frontier.Config, idx int, c frontier.Cell) (cellTally, error) {
	model, err := chanmodel.Parse(c.Model)
	if err != nil {
		return cellTally{}, err
	}
	kind, err := registry.Kind(c.Kind)
	if err != nil {
		return cellTally{}, err
	}
	spec, err := registry.Protocol(c.Proto, registry.Params{M: c.M, Window: c.Window})
	if err != nil {
		return cellTally{}, err
	}
	// The sweep's tapes: 0..Items-1 for repetition-free alpha, the same
	// ramp reduced mod m for the others.
	input := make(seq.Seq, c.Items)
	for i := range input {
		if c.Proto == "alpha" {
			input[i] = seq.Item(i)
		} else {
			input[i] = seq.Item(i % c.M)
		}
	}
	cellSeed := cfg.Seed + int64(idx)*10007
	est, err := prob.Run(tracedSpec(spec, &tr.steps), input, kind, prob.Config{
		Trials:      c.Trials,
		Seed:        cellSeed,
		Parallelism: cfg.Parallelism,
		NewAdversary: func(trial int) sim.Adversary {
			return &tracedAdversary{
				Adversary: chanmodel.NewAdversary(model, cellSeed+int64(trial)),
				calls:     &tr.chooseCalls,
				ns:        &tr.chooseNs,
			}
		},
	})
	if err != nil {
		return cellTally{}, err
	}
	return cellTally{c.Proto, c.Model, c.M, c.Window, est.Trials, est.Completed, est.Stalled, est.Violations, est.Steps, est.Items}, nil
}
