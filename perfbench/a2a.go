package main

import (
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/coll"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// The alltoall workloads are the paper's Figure 13 shape at its 16-node
// point: a nonblocking alltoall on 16 nodes x 8 ranks per node in the OMB
// loop (post, compute, wait, barrier). A step is one iteration, timed on
// rank 0 from barrier exit to barrier exit.
const (
	a2aNodes  = 16
	a2aPPN    = 8
	a2aWarmup = 3 // unmeasured iterations: group, registration and key caches fill

	schemeOffload = baseline.NameProposed // cross-GVMI group offload to the DPU proxies
	schemeHost    = baseline.NameIntelMPI // host-progressed MPI baseline

	// a2aSteadyTol bounds how far a measured step's simulated latency may
	// stray from the run's median: the loop is in steady state after the
	// warm-up, so a larger swing means the simulation went wrong.
	a2aSteadyTol = 0.05
)

// a2aSize draws the per-peer block from the seed: 17 to 64 KiB in whole
// KiB. 16 KiB itself is MPI's eager threshold, so every seed keeps the same
// protocol (rendezvous) and only the size varies.
func a2aSize(seed uint64) int {
	r := rand.New(rand.NewPCG(seed, 0xa2a))
	return (17 + r.IntN(48)) << 10
}

func a2aRunner(scheme string) func(uint64, phaseOpts) *phase {
	return func(seed uint64, o phaseOpts) *phase { return a2aRun(scheme, a2aSize(seed), o) }
}

// a2aRun measures one phase at a given per-peer size.
func a2aRun(scheme string, size int, o phaseOpts) *phase {
	ph := &phase{probeSize: size, spans: map[string][]float64{}}
	for s := 1; s < o.setups; s++ {
		if err := a2aSim(scheme, size, o, ph, true); err != nil {
			ph.crash, ph.lost = err, 1
			return ph
		}
	}
	if err := a2aSim(scheme, size, o, ph, false); err != nil {
		ph.crash, ph.lost = err, 1
	}
	checkSteady(ph)
	return ph
}

// a2aSim runs one simulation: build, warm-up, then (unless setupOnly)
// measured steps until o says stop. It appends its setup sample and, for a
// measured run, the steps to ph.
func a2aSim(scheme string, size int, o phaseOpts, ph *phase, setupOnly bool) (err error) {
	defer recoverInto(&err)
	if o.traced && !setupOnly {
		// A no-op after a2aMeter.finish; stops the profile of a crashed run.
		defer pprof.StopCPUProfile()
	}
	var reg *metrics.Registry
	if o.counted && !setupOnly {
		reg = metrics.NewRegistry()
	}
	t0 := time.Now()
	e := bench.Build(bench.Options{Nodes: a2aNodes, PPN: a2aPPN, Scheme: scheme, Metrics: reg})
	ph.spans["build"] = append(ph.spans["build"], ms(time.Since(t0)))
	np := a2aNodes * a2aPPN

	// lat[step%2][rank] is each rank's post-to-wait simulated latency. Two
	// buffers suffice: no rank can start step i+2 before rank 0 has left
	// the barrier of step i and read buffer i%2.
	lat := [2][]sim.Time{make([]sim.Time, np), make([]sim.Time, np)}
	// stopAt is the first step not to run. Rank 0 sets it once, before it
	// enters the barrier that ends the last step; every other rank reads
	// it only after leaving that barrier, so all ranks agree.
	stopAt := math.MaxInt
	var rankErr error
	e.Launch(func(r *mpi.Rank, ops coll.Ops, _ coll.P2P) {
		defer recoverInto(&rankErr)
		me := r.RankID()
		send, recv := r.Alloc(np*size), r.Alloc(np*size)
		var pure sim.Time
		for it := 0; it < a2aWarmup; it++ {
			v := r.Now()
			ops.Wait(ops.Ialltoall(0, send.Addr(), recv.Addr(), size))
			pure = r.Now() - v
			if me == 0 && it == a2aWarmup-1 && setupOnly {
				stopAt = 0
			}
			r.Barrier()
		}
		var m *a2aMeter
		if me == 0 {
			ph.setupS = append(ph.setupS, time.Since(t0).Seconds())
			if !setupOnly {
				m = newA2AMeter(o, ph, reg, r.Now())
			}
		}
		for step := 0; step < stopAt; step++ {
			v := r.Now()
			tp := time.Now()
			q := ops.Ialltoall(0, send.Addr(), recv.Addr(), size)
			tc := time.Now()
			// OMB sizes the compute to the pure communication latency.
			r.Compute(pure)
			tw := time.Now()
			ops.Wait(q)
			lat[step%2][me] = r.Now() - v
			if me == 0 && o.done(step+1, m.start) {
				stopAt = step + 1
			}
			tb := time.Now()
			r.Barrier()
			if me == 0 {
				m.step(lat[step%2], r.Now(), tp, tc, tw, tb)
			}
		}
		if m != nil {
			m.finish()
		}
	})
	if rankErr != nil {
		return rankErr
	}
	return nil
}

// a2aMeter is rank 0's bookkeeping for the measured steps.
type a2aMeter struct {
	o     phaseOpts
	ph    *phase
	reg   *metrics.Registry
	start time.Time // host time the first measured step began
	last  time.Time // host time the previous step ended
	vLast sim.Time  // simulated time the previous step ended
	ms0   runtime.MemStats
	cpu0  int64 // process CPU time when measuring began
	prof  cpuProfile
}

func newA2AMeter(o phaseOpts, ph *phase, reg *metrics.Registry, now sim.Time) *a2aMeter {
	m := &a2aMeter{o: o, ph: ph, reg: reg, vLast: now}
	if o.counted {
		ph.countsStart = tally(reg)
	}
	if o.traced {
		m.prof.start()
	}
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = processCPU()
	m.start = time.Now()
	m.last = m.start
	return m
}

// step records a measured step, which ended on rank 0 at simulated time
// vNow; tp, tc, tw and tb are the host times rank 0 posted, began the
// compute, began the wait and entered the barrier.
func (m *a2aMeter) step(lat []sim.Time, vNow sim.Time, tp, tc, tw, tb time.Time) {
	now := time.Now()
	m.ph.stepMS = append(m.ph.stepMS, ms(now.Sub(m.last)))
	m.last = now
	d := newDigester()
	d.add(int64(vNow - m.vLast))
	worst := sim.Time(0)
	for _, l := range lat {
		d.add(int64(l))
		if l <= 0 {
			m.ph.bad++
		}
		worst = max(worst, l)
	}
	if vNow-m.vLast < lat[0] {
		m.ph.bad++
	}
	m.vLast = vNow
	m.ph.digests = append(m.ph.digests, d.sum())
	m.ph.simLat = append(m.ph.simLat, float64(worst))
	if m.o.traced {
		m.ph.spans["post"] = append(m.ph.spans["post"], ms(tc.Sub(tp)))
		m.ph.spans["compute"] = append(m.ph.spans["compute"], ms(tw.Sub(tc)))
		m.ph.spans["wait"] = append(m.ph.spans["wait"], ms(tb.Sub(tw)))
		m.ph.spans["barrier"] = append(m.ph.spans["barrier"], ms(now.Sub(tb)))
	}
}

func (m *a2aMeter) finish() {
	m.ph.elapsed = m.last.Sub(m.start)
	m.ph.cpuNS = processCPU() - m.cpu0
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	m.ph.allocBytes = ms1.TotalAlloc - m.ms0.TotalAlloc
	if m.o.traced {
		m.ph.profile = m.prof.stop()
	}
	if m.o.counted {
		m.ph.countsEnd = tally(m.reg)
	}
}

// checkSteady marks measured steps whose worst simulated latency strays
// more than a2aSteadyTol from the run's median.
func checkSteady(ph *phase) {
	mid := median(ph.simLat)
	for _, w := range ph.simLat {
		if math.Abs(w-mid) > a2aSteadyTol*mid {
			ph.bad++
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
