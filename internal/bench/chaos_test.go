package bench

import (
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/span"
)

// Frozen fig13 measurement values for the seed configuration (Proposed,
// 2 nodes x 4 PPN, warmup 1, iters 2). The fault/reliability subsystem must
// not move these by a single nanosecond when no fault plan is attached —
// and neither may a rate-zero plan.
const (
	guardPure8K    = sim.Time(52508)
	guardOverall8K = sim.Time(53953)

	guardPure64K    = sim.Time(160049)
	guardOverall64K = sim.Time(171051)

	guardPure4KBacked    = sim.Time(44841)
	guardOverall4KBacked = sim.Time(45603)
)

func guardOpt() Options {
	return Options{Nodes: 2, PPN: 4, Scheme: baseline.NameProposed}
}

// Zero-overhead guard: with no fault plan the timings are bit-identical to
// the values captured before the fault subsystem existed.
func TestFig13TimingsBitIdenticalToSeed(t *testing.T) {
	r := MeasureIalltoall(guardOpt(), 8192, 1, 2)
	if r.PureComm != guardPure8K || r.Overall != guardOverall8K {
		t.Fatalf("8K timings moved: pure=%d overall=%d, want %d/%d",
			r.PureComm, r.Overall, guardPure8K, guardOverall8K)
	}
	r = MeasureIalltoall(guardOpt(), 65536, 1, 2)
	if r.PureComm != guardPure64K || r.Overall != guardOverall64K {
		t.Fatalf("64K timings moved: pure=%d overall=%d, want %d/%d",
			r.PureComm, r.Overall, guardPure64K, guardOverall64K)
	}
	opt := guardOpt()
	opt.Backed = true
	r = MeasureIalltoall(opt, 4096, 1, 2)
	if r.PureComm != guardPure4KBacked || r.Overall != guardOverall4KBacked {
		t.Fatalf("backed 4K timings moved: pure=%d overall=%d, want %d/%d",
			r.PureComm, r.Overall, guardPure4KBacked, guardOverall4KBacked)
	}
}

// A rate-zero fault plan must take the silent fast paths: same timings as
// no plan at all, for both a nil config and Scaled(seed, 0).
func TestRateZeroChaosMatchesFig13Exactly(t *testing.T) {
	for _, fcfg := range []*fault.Config{nil, fault.Scaled(42, 0)} {
		r := MeasureChaosIalltoall(guardOpt(), fcfg, 0, 8192, 1, 2)
		if r.PureComm != guardPure8K || r.Overall != guardOverall8K {
			t.Fatalf("cfg=%+v: pure=%d overall=%d, want %d/%d",
				fcfg, r.PureComm, r.Overall, guardPure8K, guardOverall8K)
		}
		if !r.Verified || r.Mismatches != 0 {
			t.Fatalf("cfg=%+v: payload verification failed (%d mismatches)", fcfg, r.Mismatches)
		}
		if r.Fault != (fault.Stats{}) {
			t.Fatalf("cfg=%+v: silent plan injected faults: %+v", fcfg, r.Fault)
		}
	}
}

// The acceptance sweep: every rate completes with verified payloads; the
// rate-0 row equals fig13; the top rate actually injects and retries.
func TestChaosSweepAllRatesVerified(t *testing.T) {
	rates := []float64{0, 1e-4, 1e-3, 1e-2}
	results := ChaosSweep(guardOpt(), 42, rates, 8192, 1, 2)
	if len(results) != len(rates) {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if !r.Verified {
			t.Fatalf("rate %g: %d payload mismatches", rates[i], r.Mismatches)
		}
	}
	if r0 := results[0]; r0.PureComm != guardPure8K || r0.Overall != guardOverall8K {
		t.Fatalf("rate-0 row diverged from fig13: pure=%d overall=%d", r0.PureComm, r0.Overall)
	}
	top := results[len(results)-1]
	injected := top.Fault.Drops + top.Fault.Corrupts + top.Fault.Delays + top.Fault.CQErrors
	if injected == 0 {
		t.Fatalf("rate 1e-2 injected nothing: %+v", top.Fault)
	}
	if top.Fault.Retries == 0 {
		t.Fatalf("drops/CQEs without retries: %+v", top.Fault)
	}
	if top.Fault.Exhausted != 0 {
		t.Fatalf("retry budget exhausted during sweep: %+v", top.Fault)
	}
	if top.Overall <= results[0].Overall {
		t.Fatalf("faults at 1e-2 did not degrade overall time: %d <= %d",
			top.Overall, results[0].Overall)
	}
}

// Determinism regression: the same chaos scenario run twice with the same
// seed produces identical span records (fault instants included) and
// identical end times.
func TestChaosRunsAreDeterministic(t *testing.T) {
	run := func() (*span.Collector, ChaosResult) {
		return CollectChaosSpans(guardOpt(), fault.Scaled(7, 1e-2), 1e-2, 8192, 1, 2)
	}
	sa, a := run()
	sb, b := run()
	if a.PureComm != b.PureComm || a.Overall != b.Overall || a.EndTime != b.EndTime {
		t.Fatalf("timings diverged: %d/%d/%d vs %d/%d/%d",
			a.PureComm, a.Overall, a.EndTime, b.PureComm, b.Overall, b.EndTime)
	}
	if a.Fault != b.Fault {
		t.Fatalf("fault stats diverged: %+v vs %+v", a.Fault, b.Fault)
	}
	if len(instants(sa)) == 0 {
		t.Fatal("no instant events recorded")
	}
	if !reflect.DeepEqual(sa.Spans(), sb.Spans()) {
		t.Fatalf("span records diverged: %d vs %d spans", sa.Len(), sb.Len())
	}
}

// instants returns the collector's instant events in recording order.
func instants(sc *span.Collector) []span.Span {
	var out []span.Span
	for _, s := range sc.Spans() {
		if s.Instant {
			out = append(out, s)
		}
	}
	return out
}

// Killing a proxy mid-group-offload: every rank it served fails over to
// host-progressed execution, all payloads still arrive intact, and the
// instant events record crash -> heartbeat-loss -> failover in causal order.
func TestProxyCrashFailsOverWithCorrectPayloads(t *testing.T) {
	fcfg := fault.DefaultConfig(1)
	fcfg.Crashes = []fault.Crash{{Proxy: 0, At: 10 * sim.Microsecond}}
	ccfg := cluster.DefaultConfig(2, 2)
	ccfg.Fault = fcfg
	opt := Options{
		Nodes: 2, PPN: 2, Scheme: baseline.NameProposed,
		Backed: true, ProxiesPerDPU: 1, Cluster: &ccfg,
		Spans: span.New(0),
	}
	e := Build(opt)
	np := e.Cl.Cfg.NP()
	const msgSize = 8192
	const iters = 3
	mismatches := make([]int, np)

	e.Launch(func(r *mpi.Rank, ops coll.Ops, _ coll.P2P) {
		me := r.RankID()
		sp := r.Space()
		send := r.Alloc(np * msgSize)
		recv := r.Alloc(np * msgSize)
		for seq := 0; seq < iters; seq++ {
			blk := make([]byte, msgSize)
			for dst := 0; dst < np; dst++ {
				for i := range blk {
					blk[i] = chaosPattern(me, dst, seq, i)
				}
				sp.WriteAt(send.Addr()+mem.Addr(dst*msgSize), blk, msgSize)
			}
			q := ops.Ialltoall(0, send.Addr(), recv.Addr(), msgSize)
			r.Compute(20 * sim.Microsecond) // keep the collective in flight across the crash
			ops.Wait(q)
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
			r.Barrier()
		}
	})

	for me, m := range mismatches {
		if m != 0 {
			t.Errorf("rank %d: %d corrupted blocks after failover", me, m)
		}
	}
	if e.Cl.Inj.Stats.Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1", e.Cl.Inj.Stats.Crashes)
	}
	st := e.Fw.Stats()
	if st.Failovers != 2 {
		t.Fatalf("Failovers = %d, want 2 (both ranks of node 0)", st.Failovers)
	}
	if st.FallbackGroupCalls == 0 || st.FallbackWrites == 0 {
		t.Fatalf("no fallback execution recorded: %+v", st)
	}

	// The instants must show the causal chain in order.
	events := instants(opt.Spans)
	idx := map[string]int{"crash": -1, "heartbeat-loss": -1, "failover": -1}
	at := map[string]sim.Time{}
	for i, ev := range events {
		if j, ok := idx[ev.Name]; ok && j < 0 {
			idx[ev.Name] = i
			at[ev.Name] = ev.Begin
		}
	}
	for _, action := range []string{"crash", "heartbeat-loss", "failover"} {
		if idx[action] < 0 {
			t.Fatalf("instants missing %q; events: %d", action, len(events))
		}
	}
	if !(idx["crash"] < idx["heartbeat-loss"] && idx["heartbeat-loss"] <= idx["failover"]) {
		t.Fatalf("causal order violated: crash@%d hb-loss@%d failover@%d",
			idx["crash"], idx["heartbeat-loss"], idx["failover"])
	}
	if at["heartbeat-loss"] < at["crash"]+fcfg.HeartbeatTimeout {
		t.Fatalf("heartbeat loss declared after %v, before the %v timeout elapsed",
			at["heartbeat-loss"]-at["crash"], fcfg.HeartbeatTimeout)
	}
}

// A crashed proxy that restarts comes back with empty state; hosts that
// already failed over stay on the fallback path and payloads stay correct.
func TestProxyCrashWithRestartStillCorrect(t *testing.T) {
	fcfg := fault.DefaultConfig(2)
	fcfg.Crashes = []fault.Crash{{Proxy: 0, At: 10 * sim.Microsecond, RestartAfter: 15 * sim.Microsecond}}
	ccfg := cluster.DefaultConfig(2, 2)
	ccfg.Fault = fcfg
	opt := Options{
		Nodes: 2, PPN: 2, Scheme: baseline.NameProposed,
		Backed: true, ProxiesPerDPU: 1, Cluster: &ccfg,
	}
	r := MeasureChaosIalltoall(opt, fcfg, 0, 8192, 1, 2)
	if !r.Verified {
		t.Fatalf("%d payload mismatches across crash+restart", r.Mismatches)
	}
	if r.Fault.Crashes != 1 || r.Fault.Restarts != 1 {
		t.Fatalf("crash/restart not executed: %+v", r.Fault)
	}
}

func BenchmarkFig13Ialltoall8K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := MeasureIalltoall(guardOpt(), 8192, 1, 2)
		if r.PureComm != guardPure8K {
			b.Fatalf("timing moved: %d", r.PureComm)
		}
	}
}

func BenchmarkChaosIalltoall8K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := MeasureChaosIalltoall(guardOpt(), fault.Scaled(42, 1e-2), 1e-2, 8192, 1, 2)
		if !r.Verified {
			b.Fatal("payload mismatch")
		}
	}
}
