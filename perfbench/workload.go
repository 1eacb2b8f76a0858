package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
)

// workload is one seeded input set the benchmark runs.
type workload struct {
	name string
	run  func(seed uint64, o phaseOpts) *phase
}

// Every workload runs under GOMAXPROCS=1, so the sweep runner runs the
// drift series inline. A simulation is serial: with a second P its process
// handoffs bounce between two threads, which on a 2-vCPU virtual machine
// made step times swing by a sixth within one run, and two drift
// simulations side by side doubled the run-to-run spread of the tail.
const procs = 1

var workloads = map[string]*workload{
	"alltoall-offload": {name: "alltoall-offload", run: a2aRunner(schemeOffload)},
	"alltoall-host":    {name: "alltoall-host", run: a2aRunner(schemeHost)},
	"tenant-drift":     {name: "tenant-drift", run: runDrift},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// phaseOpts bound one measured phase.
type phaseOpts struct {
	budget   time.Duration // host time of measured steps (ignored when maxSteps > 0)
	maxSteps int           // run exactly this many measured steps
	setups   int           // setup samples; the last one precedes the measured steps
	traced   bool          // profile the CPU and time rank 0's calls
	counted  bool          // tally a metrics registry over the measured steps
}

// done reports whether a phase that has run steps steps since start
// should stop.
func (o phaseOpts) done(steps int, start time.Time) bool {
	if o.maxSteps > 0 {
		return steps >= o.maxSteps
	}
	return time.Since(start) >= o.budget
}

// phase is what one measured phase observed.
type phase struct {
	setupS     []float64     // host seconds per setup sample
	stepMS     []float64     // host ms per measured step, in step order
	elapsed    time.Duration // host time of all measured steps
	cpuNS      int64         // process CPU time over the measured steps
	allocBytes uint64        // heap bytes allocated during the measured steps
	digests    []uint32      // digest of each measured step's simulated results
	simLat     []float64     // each measured step's worst simulated latency (ns)
	bad        int           // measured steps that broke an in-run invariant
	crash      error         // deadlock or panic that ended the phase early
	lost       int           // steps in flight when it did

	// Traced phases only.
	profile []byte               // CPU profile of the measured steps
	spans   map[string][]float64 // host ms of rank 0's calls, by name

	// Counted phases only: registry tallies when measuring began and ended.
	countsStart, countsEnd map[string]float64

	probeSize int // message size the layer probes use
}

func (p *phase) attempted() int { return len(p.stepMS) + p.lost }

// recoverInto turns a panic into *err, so a crashed simulation is reported
// as failed steps instead of killing the run before it prints a result.
func recoverInto(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("panic: %v", r)
	}
}

// check counts the phase's failed steps: a crash, a broken invariant, or a
// digest that differs from the one pinned for this seed. It prints the
// run's digest so an unpinned seed's results can be compared by hand.
func check(w *workload, seed uint64, ph *phase) int {
	failed := ph.bad + ph.lost
	if ph.crash != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, seed, ph.crash)
	}
	pinned, ok := pins()[w.name][strconv.FormatUint(seed, 10)]
	verified := 0
	if ok {
		for i, d := range ph.digests {
			if 8*(i+1) > len(pinned) {
				break
			}
			verified++
			if pinned[8*i:8*i+8] != hex8(d) {
				failed++
			}
		}
	}
	fmt.Printf("digest %s seed=%d steps=%d run=%016x pinned_steps=%d verified=%d invariant_failures=%d\n",
		w.name, seed, len(ph.digests), chain(ph.digests), len(pinned)/8, verified, ph.bad)
	return failed
}

func hex8(d uint32) string { return fmt.Sprintf("%08x", d) }

// chain folds step digests into one run digest.
func chain(ds []uint32) uint64 {
	d := newDigester()
	for _, x := range ds {
		d.add(int64(x))
	}
	return d.h
}

// digester hashes simulated results, FNV-1a over their little-endian bytes.
type digester struct{ h uint64 }

func newDigester() digester { return digester{h: 14695981039346656037} }

func (d *digester) add(v int64) {
	for i := 0; i < 8; i++ {
		d.h ^= uint64(byte(v >> (8 * i)))
		d.h *= 1099511628211
	}
}

func (d *digester) addString(s string) {
	for i := 0; i < len(s); i++ {
		d.h ^= uint64(s[i])
		d.h *= 1099511628211
	}
	d.add(int64(len(s)))
}

func (d *digester) sum() uint32 { return uint32(d.h ^ d.h>>32) }

//go:embed pins.json
var pinsJSON []byte

// pins maps workload → seed → concatenated 8-hex-digit step digests.
func pins() map[string]map[string]string {
	var p map[string]map[string]string
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		fail(fmt.Errorf("pins.json: %w", err))
	}
	return p
}

const pinsPath = "perfbench/pins.json"

// writePins runs exactly n steps of the workload on seed and records their
// digests in perfbench/pins.json, replacing any earlier pin for that seed.
func writePins(w *workload, seed uint64, n int) error {
	ph := w.run(seed, phaseOpts{maxSteps: n, setups: 1})
	if ph.crash != nil || ph.bad > 0 || len(ph.digests) != n {
		return fmt.Errorf("pin %s seed %d: %d of %d steps, %d invariant failures, crash: %v",
			w.name, seed, len(ph.digests), n, ph.bad, ph.crash)
	}
	raw, err := os.ReadFile(pinsPath)
	if err != nil {
		return err
	}
	var p map[string]map[string]string
	if err := json.Unmarshal(raw, &p); err != nil {
		return fmt.Errorf("%s: %w", pinsPath, err)
	}
	if p[w.name] == nil {
		p[w.name] = map[string]string{}
	}
	var sb strings.Builder
	for _, d := range ph.digests {
		sb.WriteString(hex8(d))
	}
	p[w.name][strconv.FormatUint(seed, 10)] = sb.String()
	out, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(pinsPath, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("pinned %s seed %d: %d steps, run digest %016x\n", w.name, seed, n, chain(ph.digests))
	return nil
}

// tally sums a registry's series by layer and name, plus the aggregates the
// per-layer work counts need.
func tally(reg *metrics.Registry) map[string]float64 {
	t := map[string]float64{}
	reg.VisitCounters(func(k metrics.Key, c *metrics.Counter) {
		v := float64(c.Value())
		t[k.Layer+"."+k.Name] += v
		if k.Layer == "policy" && strings.HasPrefix(k.Name, "decide_") {
			t["policy.decisions"] += v
		}
	})
	reg.VisitGauges(func(k metrics.Key, g *metrics.Gauge) {
		if k.Layer == "core" && k.Name == "queue_depth_max" {
			t["core.queue_depth_max"] = max(t["core.queue_depth_max"], g.Value())
		}
	})
	return t
}

// addTally accumulates src into dst (queue depth takes the maximum).
func addTally(dst, src map[string]float64) {
	for k, v := range src {
		if k == "core.queue_depth_max" {
			dst[k] = max(dst[k], v)
		} else {
			dst[k] += v
		}
	}
}

// workCounts turns two tallies into the per-layer work-count metrics.
func workCounts(end, start map[string]float64, steps float64) map[string]metric {
	d := func(k string) float64 { return end[k] - start[k] }
	ratio := func(hit, miss string) float64 {
		if n := d(hit) + d(miss); n > 0 {
			return d(hit) / n
		}
		return 0
	}
	return map[string]metric{
		"fabric.msgs_per_step":      {d("fabric.msgs_tx") / steps, "count"},
		"fabric.bytes_per_step":     {d("fabric.bytes_tx") / steps, "B"},
		"mpi.eager_per_step":        {d("mpi.eager_msgs") / steps, "count"},
		"mpi.rendezvous_per_step":   {d("mpi.rendezvous_msgs") / steps, "count"},
		"core.group_hit_ratio":      {ratio("core.group_hits", "core.group_misses"), "ratio"},
		"regcache.hit_ratio":        {ratio("regcache.hits", "regcache.misses"), "ratio"},
		"verbs.retries":             {d("verbs.retries"), "count"},
		"core.queue_depth_max":      {end["core.queue_depth_max"], "count"},
		"policy.decisions_per_step": {d("policy.decisions") / steps, "count"},
		"policy.reprobes":           {d("policy.reason_reprobe"), "count"},
	}
}
