package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// ChaosResult is one row of a chaos sweep: the OMB Ialltoall overlap
// measurement repeated under deterministic fault injection, with end-to-end
// payload verification of every iteration.
type ChaosResult struct {
	NBCResult
	FaultRate  float64 // the nominal rate the fault.Config was scaled from
	EndTime    sim.Time
	Verified   bool // every recv buffer matched the expected pattern
	Mismatches int  // corrupted/missing blocks detected (0 when Verified)
	Fault      fault.Stats
	Core       core.Stats
}

// chaosPattern is the deterministic byte each rank writes: src's block for
// dst in call seq. Verification recomputes it on the receiver, so any lost
// or stale block is caught.
func chaosPattern(src, dst, seq, i int) byte {
	return byte(src*131 + dst*31 + seq*17 + i)
}

// MeasureChaosIalltoall runs the exact measurement loop of MeasureIalltoall
// — same warmup, same barriers, same compute sizing — on payload-backed
// buffers under the given fault plan, filling every send block with a
// per-iteration pattern before each collective and verifying every recv
// block after each Wait. Buffer fills and checks use mem.Space directly and
// cost zero virtual time, so with a rate-zero plan the timings are identical
// to MeasureIalltoall on the same Options.
//
// fcfg may be nil (no injector at all — the pure seed code paths).
func MeasureChaosIalltoall(opt Options, fcfg *fault.Config, rate float64, msgSize, warmup, iters int) ChaosResult {
	if opt.Cluster == nil {
		ccfg := cluster.DefaultConfig(opt.Nodes, opt.PPN)
		opt.Cluster = &ccfg
	}
	opt.Cluster.Fault = fcfg
	opt.Backed = true

	e := Build(opt)
	np := e.Cl.Cfg.NP()
	pure := make([]sim.Time, np)
	comp := make([]sim.Time, np)
	overall := make([]sim.Time, np)
	mismatches := make([]int, np)

	end := e.Launch(func(r *mpi.Rank, ops coll.Ops, _ coll.P2P) {
		me := r.RankID()
		sp := r.Space()
		send := r.Alloc(np * msgSize)
		recv := r.Alloc(np * msgSize)

		seq := 0
		fill := func() {
			blk := make([]byte, msgSize)
			for dst := 0; dst < np; dst++ {
				for i := range blk {
					blk[i] = chaosPattern(me, dst, seq, i)
				}
				sp.WriteAt(send.Addr()+mem.Addr(dst*msgSize), blk, msgSize)
			}
		}
		verify := func() {
			for src := 0; src < np; src++ {
				got := sp.ReadAt(recv.Addr()+mem.Addr(src*msgSize), msgSize)
				ok := got != nil
				for i := 0; ok && i < msgSize; i++ {
					if got[i] != chaosPattern(src, me, seq, i) {
						ok = false
					}
				}
				if !ok {
					mismatches[me]++
				}
			}
			seq++
		}

		for it := 0; it < warmup; it++ {
			fill()
			ops.Wait(ops.Ialltoall(0, send.Addr(), recv.Addr(), msgSize))
			verify()
			r.Barrier()
		}

		// Pure communication latency.
		var acc sim.Time
		for it := 0; it < iters; it++ {
			fill()
			t0 := r.Now()
			ops.Wait(ops.Ialltoall(0, send.Addr(), recv.Addr(), msgSize))
			acc += r.Now() - t0
			verify()
			r.Barrier()
		}
		pure[me] = acc / sim.Time(iters)

		// Overall time with compute sized to the pure latency (OMB).
		comp[me] = pure[me]
		acc = 0
		for it := 0; it < iters; it++ {
			fill()
			t0 := r.Now()
			q := ops.Ialltoall(0, send.Addr(), recv.Addr(), msgSize)
			r.Compute(comp[me])
			ops.Wait(q)
			acc += r.Now() - t0
			verify()
			r.Barrier()
		}
		overall[me] = acc / sim.Time(iters)
	})

	res := ChaosResult{
		NBCResult: NBCResult{Scheme: opt.Scheme, Nodes: opt.Nodes, PPN: opt.PPN, MsgSize: msgSize},
		FaultRate: rate,
		EndTime:   end,
	}
	total := 0
	for i := 0; i < np; i++ {
		if pure[i] > res.PureComm {
			res.PureComm = pure[i]
		}
		if overall[i] > res.Overall {
			res.Overall = overall[i]
		}
		if comp[i] > res.Compute {
			res.Compute = comp[i]
		}
		total += mismatches[i]
	}
	res.Overlap = OverlapPct(res.PureComm, res.Compute, res.Overall)
	res.Mismatches = total
	res.Verified = total == 0
	if e.Cl.Inj != nil {
		res.Fault = e.Cl.Inj.Stats
	}
	if e.Fw != nil {
		res.Core = e.Fw.Stats()
	}
	return res
}

// ChaosSweep measures the Ialltoall benchmark across fault rates. Rate 0
// attaches a real (but silent) injector, exercising the rate-zero fast
// paths; every nonzero rate uses fault.Scaled(seed, rate).
func ChaosSweep(opt Options, seed int64, rates []float64, msgSize, warmup, iters int) []ChaosResult {
	out := make([]ChaosResult, len(rates))
	Sweep(len(rates), func(i int, env SweepEnv) {
		o := env.Attach(opt)
		if opt.Cluster != nil {
			// MeasureChaosIalltoall writes the fault plan into the cluster
			// config; give each rate its own copy.
			ccfg := *opt.Cluster
			o.Cluster = &ccfg
		}
		out[i] = MeasureChaosIalltoall(o, fault.Scaled(seed, rates[i]), rates[i], msgSize, warmup, iters)
	})
	return out
}

// ChaosTable renders a sweep as a printable table.
func ChaosTable(results []ChaosResult) *Table {
	t := &Table{
		Title: "Chaos: Ialltoall under fault injection",
		Headers: []string{"rate", "size", "pure(us)", "overall(us)", "overlap",
			"drops", "corrupt", "delays", "cqe", "retries", "verified"},
	}
	for _, r := range results {
		t.AddRow(
			fmt.Sprintf("%g", r.FaultRate),
			fmt.Sprintf("%d", r.MsgSize),
			F2(float64(r.PureComm)/1000),
			F2(float64(r.Overall)/1000),
			Pct(r.Overlap),
			fmt.Sprintf("%d", r.Fault.Drops),
			fmt.Sprintf("%d", r.Fault.Corrupts),
			fmt.Sprintf("%d", r.Fault.Delays),
			fmt.Sprintf("%d", r.Fault.CQErrors),
			fmt.Sprintf("%d", r.Fault.Retries),
			fmt.Sprintf("%v", r.Verified),
		)
	}
	t.Notes = append(t.Notes,
		"payloads verified end to end every iteration; rate 0 matches fig13 timings exactly")
	return t
}
