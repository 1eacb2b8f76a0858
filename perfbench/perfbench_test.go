package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/bench"
)

// The pinned digests catch a perturbed input: the same steps at a
// different per-peer size (alltoall) or background arrival (tenant-drift)
// fail the pin for the seed, while the seed's own inputs pass it.
func TestPinsCatchPerturbedAlltoallInput(t *testing.T) {
	w := workloads["alltoall-offload"]
	size := a2aSize(1)
	steps := phaseOpts{maxSteps: 3, setups: 1}
	if ph := a2aRun(schemeOffload, size, steps); check(w, 1, ph) != 0 || len(ph.digests) != 3 {
		t.Fatalf("seed 1 as generated: %d digests, crash %v, want 3 steps matching the pins", len(ph.digests), ph.crash)
	}
	ph := a2aRun(schemeOffload, size+1024, steps)
	if got := check(w, 1, ph); got != 3 {
		t.Fatalf("perturbed size: %d failed steps, want 3", got)
	}
}

func TestPinsCatchPerturbedDriftInput(t *testing.T) {
	w := workloads["tenant-drift"]
	bg, arrive := driftParams(1, 0)
	pin := pins()[w.name]["1"]
	if len(pin) < 8 {
		t.Fatal("no tenant-drift pin for seed 1")
	}
	digest := func(out driftOut) string {
		if out.err != nil || !out.ok {
			t.Fatalf("drift step: err %v, invariants ok %v", out.err, out.ok)
		}
		return hex8(out.digest)
	}
	if got := digest(driftSim(bg, arrive, false)); got != pin[:8] {
		t.Fatalf("seed 1 step 0 digest %s, pinned %s", got, pin[:8])
	}
	if got := digest(driftSim(bg, arrive+driftArriveStep, false)); got == pin[:8] {
		t.Fatalf("perturbed arrival kept the pinned digest %s", got)
	}
}

// Drift steps run side by side on the sweep's workers match the pins made
// however many workers there were, and their counts tally.
func TestDriftStepsInParallel(t *testing.T) {
	defer func(n int) { bench.Parallelism = n }(bench.Parallelism)
	bench.Parallelism = 2
	ph := runDrift(1, phaseOpts{maxSteps: 2, setups: 1, counted: true})
	if got := check(workloads["tenant-drift"], 1, ph); got != 0 || len(ph.digests) != 2 {
		t.Fatalf("%d of 2 steps ran, %d failed (crash %v)", len(ph.digests), got, ph.crash)
	}
	if ph.countsEnd["policy.decisions"] == 0 {
		t.Fatalf("counted phase tallied no policy decisions: %v", ph.countsEnd)
	}
}

// Every seed runs the same protocol and mix: alltoall sizes stay above the
// eager threshold, and each block of three drift steps holds each
// background count once.
func TestSeededInputs(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		if s := a2aSize(seed); s <= 16<<10 || s > 64<<10 || s%1024 != 0 {
			t.Fatalf("seed %d: size %d", seed, s)
		}
		seen := map[int]bool{}
		for i := 0; i < driftBgMix; i++ {
			bg, arrive := driftParams(seed, 3*driftBgMix+i)
			seen[bg] = true
			if arrive < driftArriveMin || arrive >= driftArriveMin+driftArriveN*driftArriveStep {
				t.Fatalf("seed %d: arrival %v", seed, arrive)
			}
		}
		if len(seen) != driftBgMix {
			t.Fatalf("seed %d: block of background counts %v", seed, seen)
		}
	}
}

func TestTailOf(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i)
	}
	if q, v := tailOf(xs); q != 0.9 || v != 89 {
		t.Fatalf("tailOf(0..99) = p%v %v, want p0.9 89 (ten samples above)", q, v)
	}
	if q, v := tailOf([]float64{3, 1, 2}); q != 1 || v != 3 {
		t.Fatalf("tailOf of three samples = p%v %v, want the maximum", q, v)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mapaccess1", "repro/internal/core.(*Proxy).recvsSatisfied", "repro/internal/sim.(*Kernel).Spawn.func1"}, "core"},
		{[]string{"runtime.mallocgc", "repro/internal/verbs.(*Ctx).PostWrite"}, "verbs"},
		{[]string{"repro/internal/regcache.(*Cache[...]).Get"}, "regcache"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "rt_gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "rt_sched"},
		{[]string{"time.Now", "main.main"}, "other"},
		{[]string{"main.driftCheck", "main.runDrift.func2", "repro/internal/bench.sweep.func1"}, "other"},
	}
	for _, c := range cases {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// cpuByModule decodes a real CPU profile and charges a busy loop in this
// package to "other", scaled to the CPU time given.
func TestCPUByModule(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	sink = x
	cpu, err := cpuByModule(buf.Bytes(), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range cpu {
		total += v
	}
	if total < 0.999e9 || total > 1.001e9 || cpu["other"] < 0.5e9 {
		t.Fatalf("attribution %v: want it to sum to the CPU time given, mostly other", cpu)
	}
}

var sink int
