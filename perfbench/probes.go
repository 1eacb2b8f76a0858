package main

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/verbs"
)

// A probe times n calls into one layer's public API in a small rig and
// returns the host time and heap allocations of those calls alone.
type probe struct {
	name   string // metric prefix: <name>_ns, and <name>_allocs when allocs
	allocs bool
	run    func(n, size int) (time.Duration, uint64)
}

var probes = []probe{
	{"sim.event", true, probeEvent},
	{"sim.handoff", true, probeHandoff},
	{"fabric.transfer", true, probeTransfer},
	{"verbs.write", true, probeWrite},
	{"verbs.reg", false, probeReg},
	{"core.group_replay", true, probeGroup},
	{"mpi.msg", true, probeMsg},
	{"policy.decide", true, probeDecide},
	{"metrics.add", false, probeAdd},
	{"telemetry.tick", false, probeTick},
}

// Each probe's op count doubles until one repetition takes probeMin; the
// reported figure is the median of probeReps repetitions at that count.
const (
	probeMin  = 20 * time.Millisecond
	probeReps = 5
	probeMaxN = 1 << 24
)

// runProbes times every probe at the workload's message size.
func runProbes(size int) map[string]metric {
	m := map[string]metric{}
	for _, p := range probes {
		n := 16
		for {
			d, _ := p.run(n, size)
			if d >= probeMin || n >= probeMaxN {
				break
			}
			n *= 2
		}
		var ns, allocs []float64
		for r := 0; r < probeReps; r++ {
			d, a := p.run(n, size)
			ns = append(ns, float64(d)/float64(n))
			allocs = append(allocs, float64(a)/float64(n))
		}
		sort.Float64s(allocs)
		m[p.name+"_ns"] = metric{median(ns), "ns"}
		if p.allocs {
			m[p.name+"_allocs"] = metric{allocs[0], "count"}
		}
	}
	return m
}

// meter times a section and counts its heap allocations.
type meter struct {
	t0 time.Time
	m0 runtime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.m0)
	m.t0 = time.Now()
	return m
}

func (m *meter) stop() (time.Duration, uint64) {
	d := time.Since(m.t0)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	return d, m1.Mallocs - m.m0.Mallocs
}

// probeEvent: Kernel.At and the dispatch of the event, with about a
// thousand events pending.
func probeEvent(n, _ int) (time.Duration, uint64) {
	k := sim.NewKernel()
	fn := func() {}
	const pending = 1024
	for i := 0; i < pending; i++ {
		k.At(sim.Time(i), fn)
	}
	k.Run()
	m := startMeter()
	for done := 0; done < n; done += pending {
		for i := 0; i < min(pending, n-done); i++ {
			k.At(sim.Time(i*7919%pending), fn)
		}
		k.Run()
	}
	return m.stop()
}

// probeHandoff: one process hands control to another through a Cond, one
// op per handoff.
func probeHandoff(n, _ int) (time.Duration, uint64) {
	k := sim.NewKernel()
	var ping, pong sim.Cond
	turn := 0
	rounds := (n + 1) / 2
	k.Spawn("ping", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			turn = 1
			pong.Signal()
			for turn != 0 {
				ping.Wait(p)
			}
		}
	})
	k.Spawn("pong", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			for turn != 1 {
				pong.Wait(p)
			}
			turn = 0
			ping.Signal()
		}
	})
	m := startMeter()
	k.Run()
	d, a := m.stop()
	k.Shutdown()
	return d, a
}

// probeTransfer: Fabric.Transfer between two nodes' host ports and the
// delivery it schedules.
func probeTransfer(n, size int) (time.Duration, uint64) {
	cl := cluster.New(cluster.DefaultConfig(2, 1))
	src, dst := cl.Nodes[0].HostEP, cl.Nodes[1].HostEP
	got := 0
	deliver := func() { got++ }
	cl.F.Transfer(src, dst, size, deliver)
	cl.K.Run()
	m := startMeter()
	const window = 64
	for done := 0; done < n; done += window {
		for i := 0; i < min(window, n-done); i++ {
			cl.F.Transfer(src, dst, size, deliver)
		}
		cl.K.Run()
	}
	d, a := m.stop()
	cl.K.Shutdown()
	return d, a
}

// probeWrite: an RDMA write with immediate from one host to another, and
// the destination polling its notification.
func probeWrite(n, size int) (time.Duration, uint64) {
	cl := cluster.New(cluster.DefaultConfig(2, 1))
	a, b := cl.NewHostSite(0, "writer"), cl.NewHostSite(1, "target")
	abuf, bbuf := a.Space.Alloc(size, false), b.Space.Alloc(size, false)
	var d time.Duration
	var allocs uint64
	cl.K.Spawn("writer", func(p *sim.Proc) {
		amr := a.Ctx.RegisterMR(p, abuf.Addr(), size)
		bmr := b.Ctx.RegisterMR(p, bbuf.Addr(), size)
		pkt := &verbs.Packet{Kind: "probe"}
		write := func() {
			if err := a.Ctx.PostWrite(p, verbs.WriteOp{
				LocalKey: amr.LKey(), LocalAddr: abuf.Addr(),
				RemoteKey: bmr.RKey(), RemoteAddr: bbuf.Addr(), Size: size,
				Notify: pkt,
			}); err != nil {
				panic(err)
			}
			b.Ctx.AwaitInbox(p)
			b.Ctx.PollInbox()
		}
		write()
		m := startMeter()
		for i := 0; i < n; i++ {
			write()
		}
		d, allocs = m.stop()
	})
	cl.K.Run()
	cl.K.Shutdown()
	return d, allocs
}

// probeReg: RegisterMR (and Deregister) of a buffer of the workload's size.
func probeReg(n, size int) (time.Duration, uint64) {
	cl := cluster.New(cluster.DefaultConfig(1, 1))
	s := cl.NewHostSite(0, "reg")
	buf := s.Space.Alloc(size, false)
	var d time.Duration
	var allocs uint64
	cl.K.Spawn("reg", func(p *sim.Proc) {
		s.Ctx.RegisterMR(p, buf.Addr(), size).Deregister()
		m := startMeter()
		for i := 0; i < n; i++ {
			s.Ctx.RegisterMR(p, buf.Addr(), size).Deregister()
		}
		d, allocs = m.stop()
	})
	cl.K.Run()
	cl.K.Shutdown()
	return d, allocs
}

// probeGroup: GroupCall and GroupWait of a recorded group as wide as the
// alltoall workloads (one receive and one send per other rank of 128),
// replayed between two ranks on two nodes; one op is one rank's replay.
func probeGroup(n, size int) (time.Duration, uint64) {
	const width = a2aNodes*a2aPPN - 1
	e := bench.Build(bench.Options{Nodes: 2, PPN: 1, Scheme: schemeOffload})
	rounds := (n + 1) / 2
	var d time.Duration
	var allocs uint64
	e.Launch(func(r *mpi.Rank, _ coll.Ops, _ coll.P2P) {
		h := e.Fw.Host(r.RankID())
		peer := 1 - r.RankID()
		send, recv := r.Alloc(width*size), r.Alloc(width*size)
		g := h.GroupStart()
		for i := 0; i < width; i++ {
			g.Recv(recv.Addr()+mem.Addr(i*size), size, peer, 7)
		}
		for i := 0; i < width; i++ {
			g.Send(send.Addr()+mem.Addr(i*size), size, peer, 7)
		}
		g.End()
		h.GroupCall(g)
		h.GroupWait(g)
		r.Barrier()
		var m *meter
		if r.RankID() == 0 {
			m = startMeter()
		}
		for i := 0; i < rounds; i++ {
			h.GroupCall(g)
			h.GroupWait(g)
		}
		r.Barrier()
		if m != nil {
			d, allocs = m.stop()
		}
	})
	return d, allocs
}

// probeMsg: Isend, Irecv and Wait of one rendezvous message of the
// workload's size between two ranks on two nodes, host-progressed.
func probeMsg(n, size int) (time.Duration, uint64) {
	e := bench.Build(bench.Options{Nodes: 2, PPN: 1, Scheme: schemeHost})
	var d time.Duration
	var allocs uint64
	e.Launch(func(r *mpi.Rank, _ coll.Ops, _ coll.P2P) {
		buf := r.Alloc(size)
		one := func() {
			if r.RankID() == 0 {
				r.Wait(r.Isend(buf.Addr(), size, 1, 3))
			} else {
				r.Wait(r.Irecv(buf.Addr(), size, 0, 3))
			}
		}
		one()
		r.Barrier()
		var m *meter
		if r.RankID() == 0 {
			m = startMeter()
		}
		for i := 0; i < n; i++ {
			one()
		}
		r.Barrier()
		if m != nil {
			d, allocs = m.stop()
		}
	})
	return d, allocs
}

// probeDecide: the feedback policy's Decide and Observe through an Engine
// recording into a live registry, for a group collective of the workload's
// size whose observed cost alternates between two values.
func probeDecide(n, size int) (time.Duration, uint64) {
	e := policy.NewEngine(policy.NewFeedback(policy.DefaultFeedbackConfig()), metrics.NewRegistry())
	q := policy.Request{Class: policy.ClassGroup, Size: size}
	cost := func(i int) sim.Time { return sim.Time(40+i%2*10) * sim.Microsecond }
	for i := 0; i < 64; i++ {
		q.Call = i
		e.Observe(q, e.Decide(q).Path, cost(i))
	}
	m := startMeter()
	for i := 0; i < n; i++ {
		q.Call = 64 + i
		e.Observe(q, e.Decide(q).Path, cost(i))
	}
	return m.stop()
}

// probeAdd: Counter.Add on a registry counter.
func probeAdd(n, _ int) (time.Duration, uint64) {
	c := metrics.NewRegistry().Counter("perfbench", "probe", "adds")
	m := startMeter()
	for i := 0; i < n; i++ {
		c.Add(1)
	}
	return m.stop()
}

// probeTick: one telemetry bucket closed over a registry shaped like a
// drift simulation's watched series (four fabric ports, two proxies, one
// policy), driven by one event per bucket that moves a counter.
func probeTick(n, _ int) (time.Duration, uint64) {
	reg := metrics.NewRegistry()
	var cs []*metrics.Counter
	for _, ep := range []string{"n0.host", "n0.dpu", "n1.host", "n1.dpu"} {
		for _, name := range []string{"msgs_tx", "bytes_tx", "msgs_rx", "bytes_rx"} {
			cs = append(cs, reg.Counter("fabric", ep, name))
		}
	}
	for _, px := range []string{"proxy0", "proxy1"} {
		reg.Gauge("core", px, "queue_depth").Set(1)
	}
	cs = append(cs, reg.CounterT("policy", "feedback", "decide_gvmi", "fg"))
	k := sim.NewKernel()
	rec := telemetry.NewRecorder("", telemetry.Config{})
	rec.Start(k, reg)
	w := rec.Width()
	i := 0
	bump := func() { cs[i%len(cs)].Inc(); i++ }
	m := startMeter()
	const window = 256
	for done := 0; done < n; done += window {
		for j := 0; j < min(window, n-done); j++ {
			k.At(sim.Time(j+1)*w, bump)
		}
		k.Run()
	}
	return m.stop()
}
