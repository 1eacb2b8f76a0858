package policy

import (
	"testing"

	"repro/internal/datapath"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func fbReq(call int) Request { return Request{Class: ClassGroup, Size: 64 << 10, Call: call} }

// The core feedback loop: probe → freeze → hold under stable costs (no
// flap) → re-probe when the frozen path's windowed mean exceeds its
// freeze-time mean by the hysteresis factor → re-freeze on the new argmin.
func TestFeedbackReprobesOnCostDrift(t *testing.T) {
	f := NewFeedback(FeedbackConfig{})
	costs := map[datapath.Kind]sim.Time{
		datapath.KindCrossGVMI:  100,
		datapath.KindStaged:     300,
		datapath.KindHostDirect: 200,
	}
	call := 0
	for i, k := range fbCandidates {
		d := f.Decide(fbReq(call))
		if d.Path != k || d.Reason != "probe" {
			t.Fatalf("probe call %d: %+v, want probe %v", i, d, k)
		}
		f.Observe(fbReq(call), d.Path, costs[d.Path])
		call++
	}

	// Frozen on the cheapest probe (cross-GVMI); cost jitter below the 3/2
	// hysteresis must never trigger a re-probe.
	for i := 0; i < 20; i++ {
		d := f.Decide(fbReq(call))
		if d.Path != datapath.KindCrossGVMI || d.Reason != "learned" {
			t.Fatalf("stable call %d: %+v, want learned cross-GVMI (no flap)", call, d)
		}
		f.Observe(fbReq(call), d.Path, 100+sim.Time(i%3))
		call++
	}

	// The world drifts: frozen-path costs jump 10x. Within a window's worth
	// of observations the trigger must fire.
	var d Decision
	for i := 0; i < 16; i++ {
		d = f.Decide(fbReq(call))
		if d.Reason == "reprobe" {
			break
		}
		f.Observe(fbReq(call), d.Path, 1000)
		call++
	}
	if d.Reason != "reprobe" {
		t.Fatalf("10x cost drift never triggered a re-probe (last decision %+v)", d)
	}

	// The re-probe epoch walks every candidate again on fresh windows;
	// host-direct is now the cheap path and must win the re-freeze.
	newCosts := map[datapath.Kind]sim.Time{
		datapath.KindCrossGVMI:  1000,
		datapath.KindStaged:     900,
		datapath.KindHostDirect: 50,
	}
	f.Observe(fbReq(call), d.Path, newCosts[d.Path])
	call++
	for i := 1; i < len(fbCandidates); i++ {
		d = f.Decide(fbReq(call))
		if d.Reason != "reprobe" {
			t.Fatalf("re-probe walk call %d: %+v", i, d)
		}
		f.Observe(fbReq(call), d.Path, newCosts[d.Path])
		call++
	}
	if d := f.Decide(fbReq(call)); d.Path != datapath.KindHostDirect || d.Reason != "learned" {
		t.Fatalf("post-re-probe freeze %+v, want learned hostdirect", d)
	}
}

// The queue-depth gauge trigger re-probes a frozen proxy choice when the
// backlog crosses the armed threshold — but must leave a frozen
// host-direct choice alone: host-direct routed *around* the congested
// proxy, so a deep queue says nothing about it, and bouncing it back is
// exactly the flap the hysteresis exists to prevent.
func TestFeedbackGaugeTriggerSparesHostDirect(t *testing.T) {
	freeze := func(cheap datapath.Kind) (*Feedback, *metrics.Registry, int) {
		t.Helper()
		// The zero config leaves the gauge trigger disarmed (0 = disabled);
		// the default config arms it at a backlog of 8.
		f := NewFeedback(DefaultFeedbackConfig())
		reg := metrics.NewRegistry()
		f.AttachRegistry(reg)
		call := 0
		for _, k := range fbCandidates {
			d := f.Decide(fbReq(call))
			cost := sim.Time(500)
			if d.Path == cheap {
				cost = 100
			}
			f.Observe(fbReq(call), k, cost)
			call++
		}
		if d := f.Decide(fbReq(call)); d.Path != cheap || d.Reason != "learned" {
			t.Fatalf("freeze on %v: got %+v", cheap, d)
		}
		call++
		return f, reg, call
	}
	cooldown := DefaultFeedbackConfig().Cooldown

	// Frozen on the proxy path, backlog 16 >= limit 8 (freeze-time depth 0):
	// re-probe once the cooldown expires. Costs stay stable throughout, so
	// only the gauge can be the trigger.
	f, reg, call := freeze(datapath.KindCrossGVMI)
	reg.Gauge("core", "proxy0", "queue_depth").Set(16)
	var got Decision
	for i := 0; i <= cooldown; i++ {
		got = f.Decide(fbReq(call))
		if got.Reason == "reprobe" {
			break
		}
		f.Observe(fbReq(call), got.Path, 100)
		call++
	}
	if got.Reason != "reprobe" {
		t.Fatalf("deep proxy backlog never re-probed the frozen proxy choice (last %+v)", got)
	}

	// Frozen on host-direct under the same backlog: no re-probe, ever.
	f, reg, call = freeze(datapath.KindHostDirect)
	reg.Gauge("core", "proxy0", "queue_depth").Set(16)
	for i := 0; i < 3*cooldown; i++ {
		d := f.Decide(fbReq(call))
		if d.Path != datapath.KindHostDirect || d.Reason != "learned" {
			t.Fatalf("frozen host-direct bounced on a proxy backlog: call %d %+v", call, d)
		}
		f.Observe(fbReq(call), d.Path, 100)
		call++
	}
}

// Ranks of one collective interleave their Decide calls with cost
// observations from completing operations. The per-call decision memo
// must pin every call to whatever the first rank saw — especially at the
// drift boundary, where a burst of slow completions landing between two
// ranks' Decide calls would otherwise send one rank re-probing while its
// peer replays the frozen choice (deadlock).
func TestFeedbackRankConsistencyAtDriftBoundary(t *testing.T) {
	const ranks = 4
	f := NewFeedback(FeedbackConfig{})
	call := 0
	lockstep := func(observeCost sim.Time) Decision {
		t.Helper()
		first := f.Decide(fbReq(call))
		f.Observe(fbReq(call), first.Path, observeCost)
		for r := 1; r < ranks; r++ {
			if d := f.Decide(fbReq(call)); d != first {
				t.Fatalf("call %d rank %d diverged: %+v vs %+v", call, r, d, first)
			}
			// Peer completions skew the table between the ranks' decisions.
			f.Observe(fbReq(call), first.Path, observeCost+sim.Time(10*r))
		}
		call++
		return first
	}

	for i := 0; i < len(fbCandidates); i++ {
		lockstep(100)
	}
	// Stable frozen calls past the cooldown.
	for i := 0; i < DefaultFeedbackConfig().Cooldown+1; i++ {
		if d := lockstep(100); d.Reason != "learned" {
			t.Fatalf("stable call froze wrong: %+v", d)
		}
	}

	// Drift boundary: rank 0 sees no drift at this call; eight 100x-slower
	// completions land before the peers ask about the same call.
	d0 := f.Decide(fbReq(call))
	if d0.Reason != "learned" {
		t.Fatalf("boundary call: %+v, want learned", d0)
	}
	for i := 0; i < 8; i++ {
		f.Observe(fbReq(call), d0.Path, 10000)
	}
	for r := 1; r < ranks; r++ {
		if d := f.Decide(fbReq(call)); d != d0 {
			t.Fatalf("rank %d diverged at the drift boundary: %+v vs %+v", r, d, d0)
		}
	}
	call++
	// The deferred re-probe fires on the next call — for every rank.
	dn := f.Decide(fbReq(call))
	if dn.Reason != "reprobe" {
		t.Fatalf("drift swallowed by the memo: %+v", dn)
	}
	for r := 1; r < ranks; r++ {
		if d := f.Decide(fbReq(call)); d != dn {
			t.Fatalf("rank %d diverged on the re-probe call: %+v vs %+v", r, d, dn)
		}
	}
}

// Like Measuring, Feedback must never freeze an entry no probe cost ever
// reached, and non-group traffic falls back to the Adaptive rule.
func TestFeedbackProbeRetryAndFallback(t *testing.T) {
	f := NewFeedback(FeedbackConfig{})
	for call := 0; call < 10; call++ {
		d := f.Decide(fbReq(call))
		if d.Reason == "learned" {
			t.Fatalf("call %d: froze with an empty cost table", call)
		}
		if call >= len(fbCandidates) && d.Reason != "probe-retry" {
			t.Fatalf("call %d: reason %q, want probe-retry", call, d.Reason)
		}
		// No Observe: every probe cost lost.
	}

	for _, q := range []Request{
		{Class: ClassP2P, Size: 4 << 10},
		{Class: ClassP2P, Size: 1 << 20, Intra: true},
		{Class: ClassOneSided, Size: 64 << 10},
	} {
		if got, want := f.Decide(q), sizeRule(q, SmallMsgCutoff); got != want {
			t.Errorf("Feedback.Decide(%+v) = %+v, want adaptive %+v", q, got, want)
		}
	}
}

// The engine is the only place registries reach policies: NewEngineFor
// must hand its registry to any RegistryConsumer policy, and the
// feedback policy's gauge readback must be inert on every degenerate
// path — no registry attached, a nil registry, or a registry that has
// no queue-depth gauge yet — while a live registry reads the maximum
// across all proxy entities.
func TestFeedbackRegistryConsumerGaugeReadback(t *testing.T) {
	// NewEngineFor wires the registry through the RegistryConsumer
	// interface; the policy must see the very registry the engine records
	// into, and a nil-registry engine must attach nil (not skip the call,
	// which would leave a stale registry from a prior attach).
	f := NewFeedback(FeedbackConfig{})
	reg := metrics.NewRegistry()
	NewEngineFor(f, reg, "fg")
	if f.reg != reg {
		t.Fatal("NewEngineFor did not attach its registry to the RegistryConsumer policy")
	}
	NewEngine(f, nil)
	if f.reg != nil {
		t.Fatal("NewEngine(nil) left a stale registry attached")
	}

	// Detached and nil-registry reads are 0 (gauge trigger disarmed).
	if d := (&Feedback{}).queueDepth(); d != 0 {
		t.Fatalf("detached policy read queue depth %v, want 0", d)
	}
	if d := f.queueDepth(); d != 0 {
		t.Fatalf("nil registry read queue depth %v, want 0", d)
	}

	// A live registry without the gauge reads 0; unrelated series (other
	// layers, other names) must not leak into the readback.
	f.AttachRegistry(reg)
	reg.Counter("core", "proxy0", "queue_depth").Add(99) // counter, not gauge
	reg.Gauge("fabric", "ep0", "queue_depth").Set(50)    // wrong layer
	reg.Gauge("core", "proxy0", "inflight").Set(50)      // wrong name
	if d := f.queueDepth(); d != 0 {
		t.Fatalf("missing gauge read queue depth %v, want 0", d)
	}

	// With real per-proxy gauges the readback is the max across entities.
	reg.Gauge("core", "proxy0", "queue_depth").Set(3)
	reg.Gauge("core", "proxy1", "queue_depth").Set(12)
	reg.GaugeT("core", "proxy2", "queue_depth", "bg").Set(7)
	if d := f.queueDepth(); d != 12 {
		t.Fatalf("queue depth %v, want max across entities 12", d)
	}
}

// End to end on the degenerate path: a feedback policy frozen on a proxy
// choice with the gauge trigger armed but no registry behind it must hold
// the freeze forever under stable costs — the trigger is disarmed, not
// misread as depth 0 crossing some threshold.
func TestFeedbackGaugeTriggerInertWithoutRegistry(t *testing.T) {
	f := NewFeedback(DefaultFeedbackConfig()) // QueueDepthLimit armed at 8
	call := 0
	for _, k := range fbCandidates {
		d := f.Decide(fbReq(call))
		cost := sim.Time(500)
		if d.Path == datapath.KindCrossGVMI {
			cost = 100
		}
		f.Observe(fbReq(call), k, cost)
		call++
	}
	for i := 0; i < 3*DefaultFeedbackConfig().Cooldown; i++ {
		d := f.Decide(fbReq(call))
		if d.Path != datapath.KindCrossGVMI || d.Reason != "learned" {
			t.Fatalf("call %d: %+v, want learned cross-GVMI (no registry, no trigger)", call, d)
		}
		f.Observe(fbReq(call), d.Path, 100)
		call++
	}
}

// Invalid configs fall back to the validated defaults field by field.
func TestFeedbackConfigDefaults(t *testing.T) {
	def := DefaultFeedbackConfig()
	f := NewFeedback(FeedbackConfig{Window: -1, HystNum: 1, HystDen: 2, Cooldown: 0, QueueDepthLimit: -3})
	if f.cfg.Window != def.Window || f.cfg.HystNum != def.HystNum ||
		f.cfg.HystDen != def.HystDen || f.cfg.Cooldown != def.Cooldown {
		t.Fatalf("sanitized config %+v, want defaults %+v", f.cfg, def)
	}
	if f.cfg.QueueDepthLimit != 0 {
		t.Fatalf("negative QueueDepthLimit must disarm the gauge trigger, got %v", f.cfg.QueueDepthLimit)
	}
}

// The rich-telemetry congestion triggers: a frozen proxy-backed choice
// re-probes when the worst endpoint's retransmissions grew past RetryLimit
// since the freeze, or when delivered-byte progress stayed under
// GoodputFloor — and both spare a frozen host-direct choice, which routed
// around the congested fabric path in the first place.
func TestFeedbackCongestionTriggers(t *testing.T) {
	freeze := func(cfg FeedbackConfig, cheap datapath.Kind) (*Feedback, *metrics.Registry, int) {
		t.Helper()
		f := NewFeedback(cfg)
		reg := metrics.NewRegistry()
		f.AttachRegistry(reg)
		call := 0
		for _, k := range fbCandidates {
			d := f.Decide(fbReq(call))
			cost := sim.Time(500)
			if d.Path == cheap {
				cost = 100
			}
			f.Observe(fbReq(call), k, cost)
			call++
		}
		if d := f.Decide(fbReq(call)); d.Path != cheap || d.Reason != "learned" {
			t.Fatalf("freeze on %v: got %+v", cheap, d)
		}
		call++
		return f, reg, call
	}
	// run holds the frozen choice at stable cost until the trigger fires (or
	// the call budget runs out) and returns the last decision.
	run := func(f *Feedback, call, n int) Decision {
		t.Helper()
		var d Decision
		for i := 0; i < n; i++ {
			d = f.Decide(fbReq(call))
			if d.Reason == "reprobe" {
				return d
			}
			f.Observe(fbReq(call), d.Path, 100)
			call++
		}
		return d
	}
	cooldown := DefaultFeedbackConfig().Cooldown
	retryCfg := DefaultFeedbackConfig()
	retryCfg.QueueDepthLimit = 0 // isolate the retry trigger
	retryCfg.RetryLimit = 5

	// Retries grew by 6 >= limit 5 since the freeze: re-probe.
	f, reg, call := freeze(retryCfg, datapath.KindCrossGVMI)
	reg.Gauge("verbs", "n0.host", "endpoint_retries").Set(6)
	if d := run(f, call, cooldown+1); d.Reason != "reprobe" {
		t.Fatalf("retry growth past the limit never re-probed (last %+v)", d)
	}

	// Growth below the limit: hold.
	f, reg, call = freeze(retryCfg, datapath.KindCrossGVMI)
	reg.Gauge("verbs", "n0.host", "endpoint_retries").Set(4)
	if d := run(f, call, 3*cooldown); d.Reason != "learned" {
		t.Fatalf("sub-limit retry growth bounced the freeze (last %+v)", d)
	}

	// Frozen host-direct: immune to fabric retries by design.
	f, reg, call = freeze(retryCfg, datapath.KindHostDirect)
	reg.Gauge("verbs", "n0.host", "endpoint_retries").Set(1000)
	if d := run(f, call, 3*cooldown); d.Reason != "learned" || d.Path != datapath.KindHostDirect {
		t.Fatalf("frozen host-direct bounced on fabric retries (last %+v)", d)
	}

	goodCfg := DefaultFeedbackConfig()
	goodCfg.QueueDepthLimit = 0
	goodCfg.GoodputFloor = 1000

	// Goodput froze at 5000 and never moved: starvation, re-probe.
	preReg := metrics.NewRegistry()
	fs := NewFeedback(goodCfg)
	fs.AttachRegistry(preReg)
	preReg.Gauge("fabric", "n0.host", "goodput_bytes").Set(5000)
	call = 0
	for _, k := range fbCandidates {
		d := fs.Decide(fbReq(call))
		cost := sim.Time(500)
		if d.Path == datapath.KindCrossGVMI {
			cost = 100
		}
		_ = d
		fs.Observe(fbReq(call), k, cost)
		call++
	}
	if d := fs.Decide(fbReq(call)); d.Path != datapath.KindCrossGVMI {
		t.Fatalf("goodput rig froze on %+v", d)
	}
	call++
	if d := run(fs, call, cooldown+1); d.Reason != "reprobe" {
		t.Fatalf("stalled goodput never re-probed (last %+v)", d)
	}

	// Goodput grew by 2000 >= floor 1000: healthy, hold.
	f, reg, call = freeze(goodCfg, datapath.KindCrossGVMI)
	reg.Gauge("fabric", "n0.host", "goodput_bytes").Set(2000)
	if d := run(f, call, 3*cooldown); d.Reason != "learned" {
		t.Fatalf("healthy goodput growth bounced the freeze (last %+v)", d)
	}

	// Frozen host-direct: starvation of the fabric path it avoided is not
	// its problem.
	f, _, call = freeze(goodCfg, datapath.KindHostDirect)
	if d := run(f, call, 3*cooldown); d.Reason != "learned" || d.Path != datapath.KindHostDirect {
		t.Fatalf("frozen host-direct bounced on goodput starvation (last %+v)", d)
	}
}
