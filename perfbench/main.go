// Command perfbench measures what the simulator itself costs to run: host
// wall time, memory and allocation per step of one seeded workload. Every
// simulated result of a run is checked, against pinned digests for the
// seeds in pins.json and against in-run invariants for every seed.
//
//	bash perfbench/run.sh --workload alltoall-offload --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones (CPU
// profile by module, layer probes, work counts and spans). README.md
// describes the workloads, the metrics and how to re-pin digests.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Setup samples per run: the median of several build-and-warm-up passes is
// what setup_s reports, so a single slow pass does not decide it.
const (
	plainSetups  = 5
	tracedSetups = 1
)

// countedSteps is the length of the traced run's counted phase. Work counts
// are exact, so a few steps give them.
const countedSteps = 6

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "host seconds of measured steps")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		pin     = flag.Int("pin", 0, "run exactly this many steps and write their digests into perfbench/pins.json")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fail(fmt.Errorf("need --seconds > 0 and --trace 0 or 1"))
	}
	runtime.GOMAXPROCS(procs)
	bench.Parallelism = procs
	printHost()
	if *pin > 0 {
		if err := writePins(w, *seed, *pin); err != nil {
			fail(err)
		}
		return
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 1 {
		res = runTraced(w, *seed, budget)
	} else {
		res = runPlain(w, *seed, budget)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// printHost records what the figures were measured on.
func printHost() {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "default(100)"
	}
	host := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"gogc":       gogc,
		"describe":   describe(),
	}
	line, _ := json.Marshal(map[string]any{"host": host})
	fmt.Println(string(line))
}

// describe returns `git describe` of the checkout, or "none" outside a git
// working tree. It only asks git when the working directory is the root of
// one, so git never searches the parent directories.
func describe() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// runPlain is the untraced run: several setups, then measured steps for
// the budget, reported as the end-to-end metrics.
func runPlain(w *workload, seed uint64, budget time.Duration) result {
	ph := w.run(seed, phaseOpts{budget: budget, setups: plainSetups})
	failed := check(w, seed, ph)
	steps := len(ph.stepMS)
	tailQ, tail := tailOf(ph.stepMS)
	rss, err := peakRSSMB()
	if err != nil {
		fail(err)
	}
	fmt.Printf("ops=%d failed_ops=%d step_ms_tail=p%.2f of %d samples (%d beyond it) cpu_ms_per_step=%.3f\n",
		ph.attempted(), failed, 100*tailQ, steps, tailBeyond, float64(ph.cpuNS)/1e6/float64(max(steps, 1)))
	m := map[string]metric{
		"steps_per_s":       {float64(steps) / ph.elapsed.Seconds(), "1/s"},
		"step_ms_p50":       {median(ph.stepMS), "ms"},
		"step_ms_tail":      {tail, "ms"},
		"setup_s":           {median(ph.setupS), "s"},
		"alloc_mb_per_step": {float64(ph.allocBytes) / (1 << 20) / float64(max(steps, 1)), "MB"},
		"peak_rss_mb":       {rss, "MB"},
	}
	return result{Correct: failed == 0 && steps > 0, Attempted: ph.attempted(), Failed: failed, Metrics: m}
}

// runTraced is the per-layer run. It measures an untraced reference phase
// of half the budget; a traced phase of the whole budget with a CPU profile
// running and rank 0's calls timed (the layers that cost least need the
// samples); and a few counted steps with a metrics registry attached, kept
// apart so the registry's own work stays out of the profile. Then it times
// each layer's public API in small rigs.
func runTraced(w *workload, seed uint64, budget time.Duration) result {
	ref := w.run(seed, phaseOpts{budget: budget / 2, setups: tracedSetups})
	ph := w.run(seed, phaseOpts{budget: budget, setups: tracedSetups, traced: true})
	cnt := w.run(seed, phaseOpts{maxSteps: countedSteps, setups: tracedSetups, counted: true})
	failed := check(w, seed, ref) + check(w, seed, ph) + check(w, seed, cnt)
	steps := len(ph.stepMS)
	per := float64(max(steps, 1))
	m := map[string]metric{}

	cpu, err := cpuByModule(ph.profile, ph.cpuNS)
	if err != nil {
		fail(err)
	}
	// The profile stays in the build directory for `go tool pprof`.
	if err := os.WriteFile(profilePath(w), ph.profile, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: keep profile:", err)
	}
	for _, mod := range cpuModules {
		m["cpu_ms."+mod] = metric{cpu[mod] / 1e6 / per, "ms"}
	}
	for k, v := range workCounts(cnt.countsEnd, cnt.countsStart, float64(max(len(cnt.stepMS), 1))) {
		m[k] = v
	}
	spanMS := func(name string, scale float64) float64 { return median(ph.spans[name]) * scale }
	m["span.build_ms"] = metric{spanMS("build", 1), "ms"}
	m["span.step_ms"] = metric{median(ph.stepMS), "ms"}
	m["span.post_us"] = metric{spanMS("post", 1000), "us"}
	m["span.compute_ms"] = metric{spanMS("compute", 1), "ms"}
	m["span.wait_ms"] = metric{spanMS("wait", 1), "ms"}
	m["span.barrier_ms"] = metric{spanMS("barrier", 1), "ms"}
	refRate := float64(len(ref.stepMS)) / ref.elapsed.Seconds()
	rate := float64(steps) / ph.elapsed.Seconds()
	m["trace.overhead_pct"] = metric{100 * (refRate - rate) / refRate, "%"}
	for k, v := range runProbes(ph.probeSize) {
		m[k] = v
	}
	attempted := ref.attempted() + ph.attempted() + cnt.attempted()
	fmt.Printf("ops=%d failed_ops=%d (reference phase %d steps, traced phase %d, counted phase %d)\n",
		attempted, failed, len(ref.stepMS), steps, len(cnt.stepMS))
	return result{
		Correct:   failed == 0 && steps > 0 && len(ref.stepMS) > 0 && len(cnt.stepMS) == countedSteps,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   m,
	}
}

// profilePath is where a traced run leaves its CPU profile.
func profilePath(w *workload) string {
	return filepath.Join(".bench_build", "perfbench."+w.name+".pprof")
}

// tailBeyond is how many samples must lie above the reported tail.
const tailBeyond = 10

// tailOf returns the highest quantile with at least tailBeyond samples
// above it, and the sample at it. With too few samples it is the maximum.
func tailOf(xs []float64) (q, v float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 1 - tailBeyond
	if i < 0 {
		i = len(s) - 1
	}
	return float64(i+1) / float64(len(s)), s[i]
}

// median returns the middle value (mean of the two middle ones), 0 if empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, l := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("peak RSS: parse %q: %w", l, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
