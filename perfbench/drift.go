package main

import (
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tenant"
)

// The tenant-drift workload is a seeded series of short multi-tenant drift
// simulations shaped like bench.DriftCase: a latency-bound foreground
// alltoall under the feedback policy, and chatty 1 KiB background tenants
// that arrive mid-run, all sharing one FIFO proxy per DPU, with a live
// metrics registry and a telemetry recorder attached. The simulations run
// through bench.Sweep; each one is a step, build and teardown included.
const (
	driftNodes   = 2
	driftPPN     = 2
	driftFgIters = 24
	driftFgSize  = 64 << 10 // the foreground's per-peer block in bench.DriftCase

	// Background tenants per simulation: each block of three consecutive
	// steps holds 2, 3 and 4 of them in a seeded order, so every run sees
	// the same mix whatever its length.
	driftBgMin = 2
	driftBgMix = 3

	// Background iterations: twice the foreground's keeps every background
	// tenant busy past the foreground's finish (bench.DriftCase uses five
	// times, which only lengthens the tail after it and costs steps).
	driftBgIters = 2 * driftFgIters

	// The background arrives at a seeded time inside the foreground's run.
	driftArriveMin  = 300 * sim.Microsecond
	driftArriveStep = 10 * sim.Microsecond
	driftArriveN    = 61

	// Warm-up simulations use the middle background count and the arrival
	// times of the first steps.
	driftWarmBg = driftBgMin + driftBgMix/2
)

// driftParams draws step idx's background count and arrival time.
func driftParams(seed uint64, idx int) (bg int, arrive sim.Time) {
	block := rand.New(rand.NewPCG(seed, 0xb10c<<32|uint64(idx/driftBgMix)))
	bg = driftBgMin + block.Perm(driftBgMix)[idx%driftBgMix]
	r := rand.New(rand.NewPCG(seed, 0xa77e<<32|uint64(idx)))
	return bg, driftArriveMin + driftArriveStep*sim.Time(r.IntN(driftArriveN))
}

// driftConfig is one simulation of the series.
func driftConfig(bg int, arrive sim.Time) tenant.Config {
	cfg := bench.DriftCase(driftNodes, driftPPN, driftFgIters, "feedback")
	cfg.Jobs = cfg.Jobs[:1+bg]
	for i := 1; i < len(cfg.Jobs); i++ {
		cfg.Jobs[i].Workload.Start = arrive
		cfg.Jobs[i].Workload.Iters = driftBgIters
	}
	cfg.Metrics = metrics.NewRegistry()
	cfg.Timeline = telemetry.NewRecorder("", telemetry.Config{})
	return cfg
}

// driftOut is one simulation's outcome.
type driftOut struct {
	ms     float64
	digest uint32
	ok     bool
	err    error
	counts map[string]float64
}

// driftSim runs one simulation and checks its results.
func driftSim(bg int, arrive sim.Time, counted bool) (out driftOut) {
	t0 := time.Now()
	defer func() { out.ms = ms(time.Since(t0)) }()
	cfg := driftConfig(bg, arrive)
	res, err := tenant.Run(cfg)
	if err != nil {
		out.err = err
		return out
	}
	out.digest, out.ok = driftCheck(cfg, res)
	if counted {
		out.counts = tally(res.Metrics)
	}
	return out
}

// driftCheck digests every simulated result of a run (each job's stamped
// iteration latencies, percentiles, bytes and finish, the makespan and the
// foreground's re-probes) and checks the run's invariants: every job ran
// all its iterations on every rank, percentiles are ordered, totals add up,
// and the feedback policy noticed the drift.
func driftCheck(cfg tenant.Config, res *tenant.Result) (uint32, bool) {
	d := newDigester()
	ok := res.Makespan > 0
	var total int64
	for i, j := range res.Jobs {
		d.addString(j.Name)
		for _, s := range j.Samples {
			d.add(int64(s.At))
			d.add(int64(s.Dur))
		}
		for _, v := range []sim.Time{j.P50, j.P99, j.Max, j.Finish} {
			d.add(int64(v))
		}
		d.add(j.Bytes)
		total += j.Bytes
		ok = ok && len(j.Samples) == j.NRanks*cfg.Jobs[i].Workload.Iters &&
			0 < j.P50 && j.P50 <= j.P99 && j.P99 <= j.Max && j.Finish <= res.Makespan && j.Bytes > 0
	}
	reprobes := res.Metrics.CounterT("policy", "feedback", "reason_reprobe", "fg").Value()
	d.add(int64(res.Makespan))
	d.add(res.Bytes)
	d.add(reprobes)
	return d.sum(), ok && total == res.Bytes && reprobes > 0
}

// runDrift measures the series: setup samples of warm-up sweeps, then
// batches of steps until the phase is done.
func runDrift(seed uint64, o phaseOpts) *phase {
	workers := bench.Parallelism
	ph := &phase{probeSize: driftFgSize, spans: map[string][]float64{}}
	for s := 0; s < o.setups; s++ {
		t0 := time.Now()
		outs := make([]driftOut, workers)
		err := sweep(workers, func(i int) {
			_, arrive := driftParams(seed, s*workers+i)
			outs[i] = driftSim(driftWarmBg, arrive, false)
		})
		for _, out := range outs {
			if err == nil {
				err = out.err
			}
		}
		if err != nil {
			ph.crash, ph.lost = err, workers
			return ph
		}
		ph.setupS = append(ph.setupS, time.Since(t0).Seconds())
	}

	var prof cpuProfile
	if o.traced {
		prof.start()
	}
	if o.counted {
		ph.countsStart, ph.countsEnd = map[string]float64{}, map[string]float64{}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	start := time.Now()
	// A batch of a few steps per worker keeps every worker busy while the
	// slowest step of the batch finishes, and ends the phase within about
	// one batch of its budget.
	batch := 3 * workers
	for !o.done(len(ph.stepMS), start) {
		n := batch
		if o.maxSteps > 0 {
			n = min(n, o.maxSteps-len(ph.stepMS))
		}
		base := len(ph.stepMS)
		outs := make([]driftOut, n)
		err := sweep(n, func(i int) {
			bg, arrive := driftParams(seed, base+i)
			outs[i] = driftSim(bg, arrive, o.counted)
		})
		if err != nil {
			ph.crash, ph.lost = err, n
			break
		}
		for _, out := range outs {
			if out.err != nil {
				ph.crash = out.err
				ph.lost++
				continue
			}
			ph.stepMS = append(ph.stepMS, out.ms)
			ph.digests = append(ph.digests, out.digest)
			if !out.ok {
				ph.bad++
			}
			if o.counted {
				addTally(ph.countsEnd, out.counts)
			}
		}
		if ph.crash != nil {
			break
		}
	}
	ph.elapsed = time.Since(start)
	ph.cpuNS = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	ph.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	ph.profile = prof.stop()
	return ph
}

// sweep runs n jobs through the repository's sweep runner and reports a
// panic in any of them as an error.
func sweep(n int, job func(i int)) (err error) {
	defer recoverInto(&err)
	bench.Sweep(n, func(i int, _ bench.SweepEnv) { job(i) })
	return nil
}
