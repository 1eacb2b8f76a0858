// The Feedback policy closes ROADMAP item 4's loop: Measuring probes then
// freezes on the argmin — correct for a static fabric, wrong and *stuck
// wrong* the moment background tenants saturate the DPU mid-run. Feedback
// keeps the freeze (collective participants must stay in lockstep) but
// watches the frozen path with windowed cost estimates and re-probes when
// the observed world drifts away from the one the freeze was taken in.
package policy

import (
	"repro/internal/datapath"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// fbCandidates are the group paths Feedback probes. Unlike Measuring it
// includes HostDirect: coll.PolicyOps executes host-direct group decisions
// on the host MPI backend, which is exactly the escape hatch a saturated
// proxy needs (pattern.Run clamps host-direct to the proxy default, same
// as for the Adaptive policy's small-size decisions).
var fbCandidates = []datapath.Kind{
	datapath.KindCrossGVMI,
	datapath.KindStaged,
	datapath.KindHostDirect,
}

// FeedbackConfig tunes the feedback policy's windows and drift triggers.
type FeedbackConfig struct {
	// Window is W, the sliding-window length of the per-(class,
	// size-bucket, path) cost estimate (observations, not time).
	Window int
	// HystNum/HystDen form the hysteresis factor H = HystNum/HystDen
	// (> 1): a frozen choice drifts only when its windowed mean exceeds
	// its freeze-time mean by H, and a queue-depth trigger only fires
	// when the depth exceeds the freeze-time depth by H. H is what keeps
	// decisions from flapping: a re-frozen choice re-bases both
	// references, so a persistently congested (or persistently idle)
	// world triggers once, not every cooldown.
	HystNum, HystDen int64
	// Cooldown is the minimum number of calls between a (re-)freeze and
	// the next drift evaluation — back-to-back re-probes cannot happen.
	Cooldown int
	// QueueDepthLimit arms the registry-gauge drift trigger: when the
	// maximum "core … queue_depth" gauge (proxy backlog, sampled at group
	// boundaries) is at least this AND exceeds the freeze-time depth by
	// the hysteresis factor, the frozen choice is re-probed even before
	// its own cost estimate degrades. 0 disables the gauge trigger; it is
	// also inert when the engine records into no registry.
	QueueDepthLimit float64
	// RetryLimit arms the fabric-congestion trigger on the per-endpoint
	// retry gauges ("verbs … endpoint_retries", exported only under rich
	// telemetry): a frozen proxy-backed choice re-probes when the worst
	// endpoint's cumulative retransmissions grew by at least this many
	// since the freeze. 0 (the default) disables the trigger, keeping
	// legacy decision streams bit-exact.
	RetryLimit float64
	// GoodputFloor arms the starvation trigger on the per-endpoint
	// goodput gauges ("fabric … goodput_bytes", rich telemetry): a frozen
	// proxy-backed choice re-probes when the worst-case delivered-byte
	// progress since the freeze stayed below this floor for a full
	// cooldown window. 0 (the default) disables it.
	GoodputFloor float64
}

// DefaultFeedbackConfig returns the tuning the drift bench is validated
// with: 8-observation windows, 3/2 hysteresis, a 4-call cooldown, and the
// gauge trigger armed at a backlog of 8.
func DefaultFeedbackConfig() FeedbackConfig {
	return FeedbackConfig{Window: 8, HystNum: 3, HystDen: 2, Cooldown: 4, QueueDepthLimit: 8}
}

// fbPathStats tracks one path at one key: lifetime totals plus a sliding
// window of the last W observed costs.
type fbPathStats struct {
	n    int64
	sum  sim.Time
	win  []sim.Time // ring buffer, len == Window
	wi   int        // next write index
	wn   int        // live entries (<= len(win))
	wsum sim.Time   // sum of live entries
}

func (st *fbPathStats) add(cost sim.Time) {
	st.n++
	st.sum += cost
	if st.wn == len(st.win) {
		st.wsum -= st.win[st.wi]
	} else {
		st.wn++
	}
	st.win[st.wi] = cost
	st.wsum += cost
	st.wi = (st.wi + 1) % len(st.win)
}

// resetWindow drops the windowed estimate (kept lifetime totals are for
// accounting only; decisions use windows). Called when a re-probe epoch
// opens so stale pre-drift samples cannot outvote fresh probe costs.
func (st *fbPathStats) resetWindow() {
	st.wi, st.wn, st.wsum = 0, 0, 0
}

// fbEntry is the feedback table row for one (class, size-bucket).
type fbEntry struct {
	obs map[datapath.Kind]*fbPathStats

	// cands is the candidate list this entry probes: fbCandidates
	// filtered (and extended with the DSA engine) by the first request's
	// device capabilities. Caps are constant for a run — collectives
	// carry the fleet merge — so the list is fixed at entry creation and
	// identical on every rank.
	cands []datapath.Kind

	frozen bool
	choice datapath.Kind
	// fSum/fN snapshot the chosen path's windowed mean at freeze time —
	// the drift trigger's reference point.
	fSum sim.Time
	fN   int64
	// fDepth is the max proxy queue depth at freeze time (gauge trigger
	// reference; re-freezing under congestion re-bases it, so a
	// persistently loaded proxy does not re-trigger every cooldown).
	fDepth float64
	// fRetries/fGoodput snapshot the worst-endpoint cumulative retry and
	// goodput gauges at freeze time; the congestion triggers compare
	// growth-since-freeze against RetryLimit / GoodputFloor.
	fRetries   float64
	fGoodput   float64
	freezeCall int
	// probeStart is the first call of the current probe round; epoch
	// counts completed re-probe rounds (0 = initial learning).
	probeStart int
	epoch      int

	// decisions memoizes every call's decision. The engine is shared by
	// all ranks of a job, but their Decide calls interleave with cost
	// observations from completing operations — whichever rank decides a
	// call first locks the answer for every peer, which is what keeps
	// collective participants in lockstep across re-probes.
	decisions map[int]Decision
}

// fbMemoHorizon bounds the per-entry decision memo: collectives keep rank
// skew within a call or two, so decisions this far behind the newest call
// can no longer be requested and are pruned.
const fbMemoHorizon = 64

// Feedback is the online, feedback-driven measuring policy. See the
// package comment for the rank-consistency argument and FeedbackConfig
// for the drift triggers.
type Feedback struct {
	cfg   FeedbackConfig
	table map[costKey]*fbEntry
	reg   *metrics.Registry
}

// NewFeedback returns an empty-table feedback policy. Zero/invalid window,
// hysteresis, and cooldown fields fall back to DefaultFeedbackConfig
// values; QueueDepthLimit stays as given (0 legitimately means "no gauge
// trigger" — the registered "feedback" bundle passes the armed default).
func NewFeedback(cfg FeedbackConfig) *Feedback {
	def := DefaultFeedbackConfig()
	if cfg.Window <= 0 {
		cfg.Window = def.Window
	}
	if cfg.HystNum <= 0 || cfg.HystDen <= 0 || cfg.HystNum <= cfg.HystDen {
		cfg.HystNum, cfg.HystDen = def.HystNum, def.HystDen
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = def.Cooldown
	}
	if cfg.QueueDepthLimit < 0 {
		cfg.QueueDepthLimit = 0
	}
	return &Feedback{cfg: cfg, table: make(map[costKey]*fbEntry)}
}

// Name implements Policy.
func (*Feedback) Name() string { return "feedback" }

// AttachRegistry implements RegistryConsumer: the policy reads proxy
// queue-depth gauges out of the registry the engine records into. A nil
// registry simply disarms the gauge trigger (the cost trigger needs no
// registry). Note tenant.Run always wires a live registry, so the drift
// bench's decisions never depend on whether -metrics was passed.
func (f *Feedback) AttachRegistry(m *metrics.Registry) { f.reg = m }

func (f *Feedback) entry(q Request) *fbEntry {
	key := costKey{q.Class, sizeBucket(q.Size)}
	e := f.table[key]
	if e == nil {
		e = &fbEntry{
			obs:       make(map[datapath.Kind]*fbPathStats),
			cands:     capsCandidates(q.Caps),
			decisions: make(map[int]Decision),
		}
		f.table[key] = e
	}
	return e
}

// capsCandidates filters the probe list by device capabilities: paths the
// device cannot run are dropped (probing them would just re-measure their
// fallback under another name) and the DSA engine joins the list when one
// exists. Nil or full-capability profiles reproduce fbCandidates exactly.
func capsCandidates(p *device.Profile) []datapath.Kind {
	if p == nil {
		return fbCandidates
	}
	cands := make([]datapath.Kind, 0, len(fbCandidates)+1)
	if p.CrossGVMI {
		cands = append(cands, datapath.KindCrossGVMI)
	}
	if p.HasDSA {
		cands = append(cands, datapath.KindDSA)
	}
	return append(cands, datapath.KindStaged, datapath.KindHostDirect)
}

// Decide implements Policy.
func (f *Feedback) Decide(q Request) Decision {
	if q.Class != ClassGroup {
		// Same lockstep constraint as Measuring: p2p/one-sided probing
		// would need both endpoints to flip paths together.
		return sizeRule(q, SmallMsgCutoff)
	}
	e := f.entry(q)
	if d, ok := e.decisions[q.Call]; ok {
		return d
	}
	d := f.decide(e, q.Call)
	e.decisions[q.Call] = d
	delete(e.decisions, q.Call-fbMemoHorizon)
	return d
}

// decide computes the first-rank decision for one call of an entry.
func (f *Feedback) decide(e *fbEntry, call int) Decision {
	if !e.frozen {
		reason := "probe"
		if e.epoch > 0 {
			reason = "reprobe"
		}
		if idx := call - e.probeStart; idx >= 0 && idx < len(e.cands) {
			return Decision{Path: e.cands[idx], Reason: reason}
		}
		best, ok := f.argmin(e)
		if !ok {
			// Every probe cost was lost (chaos drops): never freeze an
			// unobserved entry, keep probing round-robin.
			return Decision{Path: e.cands[(call-e.probeStart)%len(e.cands)], Reason: "probe-retry"}
		}
		st := e.obs[best]
		e.frozen, e.choice = true, best
		e.fSum, e.fN = st.wsum, int64(st.wn)
		e.fDepth = f.queueDepth()
		e.fRetries = f.maxGauge("verbs", "endpoint_retries")
		e.fGoodput = f.maxGauge("fabric", "goodput_bytes")
		e.freezeCall = call
		return Decision{Path: best, Reason: "learned"}
	}
	if call-e.freezeCall >= f.cfg.Cooldown && f.drifted(e) {
		// Open a re-probe epoch: fresh windows, candidates walked in
		// order starting at this call; the freeze a few calls later
		// re-bases the drift references.
		e.frozen = false
		e.epoch++
		e.probeStart = call
		for _, st := range e.obs {
			st.resetWindow()
		}
		return Decision{Path: e.cands[0], Reason: "reprobe"}
	}
	return Decision{Path: e.choice, Reason: "learned"}
}

// argmin picks the observed candidate with the lowest windowed mean,
// compared exactly via integer cross-products. On re-probe epochs the
// incumbent is considered first, so a full tie keeps the previous choice
// (no flap on equal costs); the initial epoch prefers candidate order.
func (f *Feedback) argmin(e *fbEntry) (datapath.Kind, bool) {
	order := e.cands
	if e.epoch > 0 {
		order = make([]datapath.Kind, 0, len(e.cands))
		order = append(order, e.choice)
		for _, k := range e.cands {
			if k != e.choice {
				order = append(order, k)
			}
		}
	}
	var best datapath.Kind
	var bestSum sim.Time
	var bestN int64
	found := false
	for _, k := range order {
		st := e.obs[k]
		if st == nil || st.wn == 0 {
			continue
		}
		if !found || meanLess(st.wsum, int64(st.wn), bestSum, bestN) {
			best, bestSum, bestN, found = k, st.wsum, int64(st.wn), true
		}
	}
	return best, found
}

// drifted reports whether the frozen choice's world has moved: its
// windowed mean exceeds the freeze-time mean by the hysteresis factor, or
// the proxy backlog gauge crossed the armed threshold and the freeze-time
// depth by the same factor.
func (f *Feedback) drifted(e *fbEntry) bool {
	st := e.obs[e.choice]
	if st != nil && st.wn >= 2 && e.fN > 0 {
		// winMean > frozenMean * H  <=>  fSum*wn*HNum < wsum*fN*HDen,
		// compared in 128-bit integer space (counts and H are small, so
		// folding them into one 64-bit factor cannot overflow).
		if meanLess(e.fSum, e.fN*f.cfg.HystDen, st.wsum, int64(st.wn)*f.cfg.HystNum) {
			return true
		}
	}
	if f.cfg.QueueDepthLimit > 0 && e.choice != datapath.KindHostDirect {
		// Proxy backlog only concerns proxy-backed choices: a frozen
		// host-direct decision is immune to the very congestion it
		// routed around, so a deep queue must not bounce it back.
		if d := f.queueDepth(); d >= f.cfg.QueueDepthLimit &&
			d*float64(f.cfg.HystDen) > e.fDepth*float64(f.cfg.HystNum) {
			return true
		}
	}
	if e.choice != datapath.KindHostDirect {
		// Fabric-congestion triggers (rich telemetry gauges): both compare
		// deltas since the freeze, so re-freezing re-bases them and a
		// persistently retransmitting fabric triggers once per epoch.
		if f.cfg.RetryLimit > 0 &&
			f.maxGauge("verbs", "endpoint_retries")-e.fRetries >= f.cfg.RetryLimit {
			return true
		}
		if f.cfg.GoodputFloor > 0 &&
			f.maxGauge("fabric", "goodput_bytes")-e.fGoodput < f.cfg.GoodputFloor {
			return true
		}
	}
	return false
}

// maxGauge reads the maximum gauge of one (layer, name) series family out
// of the attached registry (0 without one — the triggers stay disarmed).
func (f *Feedback) maxGauge(layer, name string) float64 {
	v, ok := f.reg.MaxGauge(layer, name)
	if !ok {
		return 0
	}
	return v
}

// queueDepth reads the worst current proxy backlog from the registry (0
// without one — gauge trigger disarmed).
func (f *Feedback) queueDepth() float64 {
	v, ok := f.reg.MaxGauge("core", "queue_depth")
	if !ok {
		return 0
	}
	return v
}

// Observe implements Policy: costs feed both the lifetime totals and the
// sliding window. Unlike Measuring, observation continues after the
// freeze — the frozen path's window is exactly what the drift trigger
// watches.
func (f *Feedback) Observe(q Request, k datapath.Kind, cost sim.Time) {
	if q.Class != ClassGroup {
		return
	}
	e := f.entry(q)
	st := e.obs[k]
	if st == nil {
		st = &fbPathStats{win: make([]sim.Time, f.cfg.Window)}
		e.obs[k] = st
	}
	st.add(cost)
}
