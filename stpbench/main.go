// Command stpbench is the repository's end-to-end benchmark. One process
// runs one named workload for a fixed measuring time, checks the
// workload's outputs against references computed apart from the program,
// and prints one JSON result line:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end figures a user of the
// system sees; with -trace 1 the same workload and seed run again under
// wrappers placed around each layer's public entry points, and the
// metrics are the per-layer breakdown plus the tracing overhead.
//
// Usage:
//
//	stpbench -workload inproc-saw -seed 1 -seconds 10 -trace 0
//
// The workloads are inproc-saw, udp-window-lossy,
// udp-window-lossy-goroutine, mc-explore and sim-frontier; README.md in
// this directory describes each one.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to figures.
type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// listedMetrics reads the metrics a benchmark file lists for a workload's
// result line: the end-to-end ones untraced, the per-layer ones traced.
// listed is false when the file does not exist or does not name the
// workload.
func listedMetrics(path, workload string, traced bool) (names []string, listed bool, err error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	type entry struct{ Name string }
	var doc struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, false, fmt.Errorf("%s: %w", path, err)
	}
	if !slices.Contains(doc.Workloads, entry{workload}) {
		return nil, false, nil
	}
	entries := doc.EndToEnd
	if traced {
		entries = doc.PerLayer
	}
	for _, e := range entries {
		names = append(names, e.Name)
	}
	return names, true, nil
}

// only returns the named metrics of m; every name must be present.
func (m metrics) only(names []string) (metrics, error) {
	out := metrics{}
	for _, n := range names {
		v, ok := m[n]
		if !ok {
			return nil, fmt.Errorf("the workload did not report metric %s", n)
		}
		out[n] = v
	}
	return out, nil
}

// options are the command-line inputs shared by every workload.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// small shrinks every workload to a smoke-test size (self-tests).
	small bool
}

// workload runs one named workload and returns its result; an error
// means the harness could not run it at all (not a failed check).
type workload func(o options) (result, error)

var workloads = map[string]workload{
	"inproc-saw":                 runInprocSaw,
	"udp-window-lossy":           runUDPWindowLossy,
	"udp-window-lossy-goroutine": runUDPWindowLossyGoroutine,
	"mc-explore":                 runMCExplore,
	"sim-frontier":               runSimFrontier,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("stpbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), "|"))
	seed := fs.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := fs.Float64("seconds", 10, "measuring time; whole rounds run until it has passed")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "stpbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "stpbench: -seconds must be > 0 and -trace 0 or 1")
		return 2
	}
	if max := runtime.NumCPU(); runtime.GOMAXPROCS(0) > max {
		runtime.GOMAXPROCS(max)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1}
	if o.trace {
		// A traced run measures the workload twice, untraced and then
		// traced, each for half the time.
		o.seconds /= 2
	}
	res, err := w(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stpbench:", err)
		return 1
	}
	// A workload listed in BENCHMARK.json ends with exactly the metrics
	// listed there; the line before it carries every metric it measured.
	names, listed, err := listedMetrics("BENCHMARK.json", *name, *trace == 1)
	if err == nil && listed {
		var all []byte
		if all, err = json.Marshal(map[string]metrics{"all_metrics": res.Metrics}); err == nil {
			fmt.Println(string(all))
			res.Metrics, err = res.Metrics.only(names)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stpbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stpbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// usage is a snapshot of process resource counters.
type usage struct {
	wall time.Time
	cpu  time.Duration // user + system
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{
		wall: time.Now(),
		cpu:  time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// peakRSSMiB is the process's peak resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// runtimeStats is a snapshot of the Go runtime's allocation and GC
// totals, or the difference between two snapshots.
type runtimeStats struct {
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeStats{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC, gcPauseNs: ms.PauseTotalNs}
}

func (a runtimeStats) add(before, after runtimeStats) runtimeStats {
	a.allocBytes += after.allocBytes - before.allocBytes
	a.gcCycles += after.gcCycles - before.gcCycles
	a.gcPauseNs += after.gcPauseNs - before.gcPauseNs
	return a
}

// setRuntimeMetrics records the runtime's allocation and GC cost inside
// a run's rounds: allocation per unit of work, collections and their
// pauses per round. A round is a fixed amount of work, so a faster
// program that fits more rounds into the run does not read as more GC.
func setRuntimeMetrics(m metrics, ms measured, work float64) {
	if work < 1 {
		work = 1
	}
	rounds := float64(len(ms.rounds))
	m.set("runtime.alloc_b_per_item", float64(ms.rt.allocBytes)/work, "B")
	m.set("runtime.gc_cycles_per_round", float64(ms.rt.gcCycles)/rounds, "count")
	m.set("runtime.gc_pause_ms_per_round", float64(ms.rt.gcPauseNs)/1e6/rounds, "ms")
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 21

// setupTime is the median cost of a workload's set-up.
type setupTime struct {
	cpuS  float64 // process CPU time, user + system
	wallS float64
}

// set records the set-up's cost. setup_s is CPU time, not wall time: on
// a shared VM the host may deschedule the guest's vCPUs for minutes at a
// time, which stretches the wall time of the same set-up while its CPU
// time stays put, and work moved into set-up shows in both.
func (s setupTime) set(m metrics) {
	m.set("setup_s", s.cpuS, "s")
	m.set("setup_wall_s", s.wallS, "s")
}

// timeSetup runs build setupReps times, each from a freshly collected
// heap, and returns the median cost together with the last build's
// value; earlier values are released with drop.
func timeSetup[T any](build func() (T, error), drop func(T)) (setupTime, T, error) {
	var last T
	cpu := make([]float64, 0, setupReps)
	wall := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			drop(last)
		}
		runtime.GC()
		u0 := readUsage()
		v, err := build()
		if err != nil {
			var zero T
			return setupTime{}, zero, err
		}
		u1 := readUsage()
		cpu = append(cpu, (u1.cpu - u0.cpu).Seconds())
		wall = append(wall, u1.wall.Sub(u0.wall).Seconds())
		last = v
	}
	return setupTime{cpuS: median(cpu), wallS: median(wall)}, last, nil
}

// overhead records how much slower the traced run was than the
// untraced one, as a fraction of the untraced rate.
func overhead(m metrics, untracedRate, tracedRate float64) {
	if tracedRate > 0 {
		m.set("trace.overhead_frac", untracedRate/tracedRate-1, "frac")
	}
}

// roundSample is the cost of one whole round of a workload.
type roundSample struct {
	wall time.Duration
	cpu  time.Duration
	work float64 // units of work the round completed
}

// measured is a run's rounds, with the runtime's allocation and GC
// totals summed over the rounds themselves.
type measured struct {
	rounds []roundSample
	rt     runtimeStats
}

// measure runs whole rounds until seconds have passed and records each
// one. With settle, a garbage collection runs before every round, outside
// its timing and its runtime totals, so each round starts from the same
// heap and the process's peak footprint does not depend on where
// collections happened to fall.
func measure(seconds float64, settle bool, round func() (work float64, err error)) (measured, error) {
	var m measured
	runtime.GC()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for {
		if settle && len(m.rounds) > 0 {
			runtime.GC()
		}
		rt0 := readRuntime()
		u0 := readUsage()
		work, err := round()
		if err != nil {
			return m, err
		}
		u1 := readUsage()
		m.rt = m.rt.add(rt0, readRuntime())
		m.rounds = append(m.rounds, roundSample{wall: u1.wall.Sub(u0.wall), cpu: u1.cpu - u0.cpu, work: work})
		if u1.wall.After(deadline) {
			break
		}
	}
	return m, nil
}

// rate is the median over rounds of work per second.
func (m measured) rate() float64 {
	v := make([]float64, len(m.rounds))
	for i, r := range m.rounds {
		v[i] = r.work / r.wall.Seconds()
	}
	return median(v)
}

// cpuPerWork is the median over rounds of process CPU microseconds per
// unit of work.
func (m measured) cpuPerWork() float64 {
	v := make([]float64, len(m.rounds))
	for i, r := range m.rounds {
		v[i] = float64(r.cpu.Nanoseconds()) / 1e3 / r.work
	}
	return median(v)
}

// busy is the total wall and CPU time of the rounds themselves.
func (m measured) busy() (wall, cpu time.Duration) {
	for _, r := range m.rounds {
		wall += r.wall
		cpu += r.cpu
	}
	return wall, cpu
}

// work is the total work of all rounds.
func (m measured) work() float64 {
	var w float64
	for _, r := range m.rounds {
		w += r.work
	}
	return w
}
