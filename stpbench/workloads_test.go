package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// The metrics each workload reports, by name and unit: end to end with
// tracing off, per layer with it on.
var wantMetrics = map[string][2]map[string]string{
	"inproc-saw":                 {fleetEndToEnd, fleetPerLayer},
	"udp-window-lossy":           {fleetEndToEnd, fleetPerLayer},
	"udp-window-lossy-goroutine": {fleetEndToEnd, fleetPerLayer},
	"mc-explore": {merge(simEndToEnd, map[string]string{"mc_states_per_s": "1/s"}), merge(simPerLayer, map[string]string{
		"mc.states": "count", "mc.depth": "count", "mc.dedup_hit_frac": "frac",
		"mc.worker_imbalance": "ratio", "mc.protocol_ns_per_state": "ns",
		"mc.engine_ns_per_state": "ns", "mc.alloc_b_per_state": "B",
	})},
	"sim-frontier": {simEndToEnd, merge(simPerLayer, map[string]string{
		"sim.trials": "count", "sim.delivered": "count", "sim.ns_per_step": "ns",
		"chanmodel.choose_ns": "ns",
	})},
}

var (
	fleetEndToEnd = map[string]string{
		"setup_s": "s", "setup_wall_s": "s", "sessions_per_s": "1/s", "items_per_s": "1/s",
		"session_p50_ms": "ms", "session_p99_ms": "ms", "cpu_us_per_item": "us",
		"rss_peak_mb": "MiB",
	}
	fleetPerLayer = map[string]string{
		"protocol.step_ns": "ns", "protocol.steps_per_item": "count",
		"wire.delivery_us_p50": "us", "wire.delivery_us_p99": "us",
		"wire.batch_frames_mean": "frames", "wire.frames_per_item": "frames",
		"wire.retransmits_per_item":        "frames",
		"wire.drops_per_item.impair":       "frames",
		"wire.drops_per_item.inbox_full":   "frames",
		"wire.drops_per_item.outbox_full":  "frames",
		"wire.drops_per_item.backpressure": "frames",
		"transport.send_us_per_call":       "us",
		"transport.busy_frac":              "frac",
		"impair.self_us_per_call":          "us",
		"engine.tick_lateness_us_p50":      "us",
		"engine.tick_lateness_us_p99":      "us",
		"engine.cpu_util":                  "frac",
		"engine.stalled_sessions":          "count",
		"runtime.alloc_b_per_item":         "B",
		"runtime.gc_cycles_per_round":      "count",
		"runtime.gc_pause_ms_per_round":    "ms",
		"trace.overhead_frac":              "frac",
	}
	simEndToEnd = map[string]string{
		"setup_s": "s", "setup_wall_s": "s", "items_per_s": "1/s", "cpu_us_per_item": "us", "rss_peak_mb": "MiB",
	}
	simPerLayer = map[string]string{
		"sim.steps": "count", "protocol.step_ns": "ns", "protocol.steps_per_item": "count",
		"runtime.alloc_b_per_item": "B", "runtime.gc_cycles_per_round": "count",
		"runtime.gc_pause_ms_per_round": "ms", "trace.overhead_frac": "frac",
	}
)

func merge[V any](a, b map[string]V) map[string]V {
	out := map[string]V{}
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}

// TestWorkloadsTiny runs every workload at smoke-test size, untraced
// and traced, and checks that each named metric appears with its unit
// and that the operation counts are reported.
func TestWorkloadsTiny(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res, err := workloads[name](options{seed: 7, seconds: 0.2, trace: traced, small: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s trace=%v: checks failed", name, traced)
			}
			if res.Attempted < 1 || res.Failed < 0 || res.Failed > res.Attempted {
				t.Errorf("%s trace=%v: attempted %d, failed %d", name, traced, res.Attempted, res.Failed)
			}
			want := wantMetrics[name][0]
			if traced {
				want = wantMetrics[name][1]
			}
			for metric, unit := range want {
				got, ok := res.Metrics[metric]
				// Tails need 1000 samples, more than a tiny run has.
				if !ok && strings.Contains(metric, "p99") {
					continue
				}
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", name, traced, metric, got, ok, unit)
				}
			}
			for metric := range res.Metrics {
				if _, ok := want[metric]; !ok {
					t.Errorf("%s trace=%v: unexpected metric %s", name, traced, metric)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json to the program: each
// workload it lists exists and reports every listed end-to-end metric
// (untraced) and per-layer metric (traced) with the listed unit, so its
// result line can carry exactly the listed metrics.
func TestBenchmarkJSONMatches(t *testing.T) {
	const path = "../BENCHMARK.json"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json lists unknown workload %s", w.Name)
		}
		for i, entries := range [][]entry{doc.EndToEnd, doc.PerLayer} {
			names, listed, err := listedMetrics(path, w.Name, i == 1)
			if err != nil || !listed || len(names) != len(entries) {
				t.Fatalf("listedMetrics(%s, trace=%d) = %v, %v, %v", w.Name, i, names, listed, err)
			}
			res, err := workloads[w.Name](options{seed: 3, seconds: 0.2, trace: i == 1, small: true})
			if err != nil {
				t.Fatal(err)
			}
			line, err := res.Metrics.only(names)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, i, err)
			}
			for _, e := range entries {
				if got := line[e.Name]; got.Unit != e.Unit {
					t.Errorf("%s trace=%d: %s has unit %q, listed with %q", w.Name, i, e.Name, got.Unit, e.Unit)
				}
			}
		}
	}
	if _, listed, err := listedMetrics("no-such-file.json", "mc-explore", false); err != nil || listed {
		t.Errorf("a missing benchmark file: listed %v, err %v", listed, err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "mc-explore", "-trace", "2"},
		{"-workload", "mc-explore", "-seconds", "0"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}
