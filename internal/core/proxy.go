package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/datapath"
	"repro/internal/gvmi"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/regcache"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/verbs"
)

// matchKey pairs RTS and RTR traffic: requests match on
// (source rank, destination rank, tag), FIFO within a key.
type matchKey struct{ src, dst, tag int }

// groupKey identifies a group request on the proxy side: the paper's DPU
// cache is "indexed by the host's request ID and rank".
type groupKey struct{ host, id int }

// Proxy is a worker process on a BlueField DPU serving the host processes
// mapped to it. Its progress engine runs as a dedicated daemon — the reason
// offloaded patterns advance without host CPU intervention.
type Proxy struct {
	fw     *Framework
	global int
	node   int
	local  int
	site   *cluster.Site
	ctx    *verbs.Ctx
	dsaCtx *verbs.Ctx // posts through the node's DSA engine port; nil without one
	proc   *sim.Proc
	gvmiID gvmi.ID

	// Crash state (fault injection). gen counts crash/restart transitions:
	// work posted to the proxy under an older generation has been lost, which
	// is how hosts detect state loss across a restart.
	crashed   bool
	crashedAt sim.Time
	gen       int

	crossCache *regcache.Cache[*verbs.MR] // first level: source host rank

	sendQ    map[matchKey][]*rtsMsg
	recvQ    map[matchKey][]*rtrMsg
	combined []pairMsg // matched send/recv pairs awaiting transfer
	deferred []func()  // actions queued by RDMA completions
	spare    []func()  // deferred's other buffer: the loop swaps the two

	groups     map[groupKey]*proxyGroup
	groupList  []*proxyGroup // install order, for deterministic iteration
	active     []*proxyGroup // activeGroups' buffer, reused every loop pass
	deliveries dlvCounters

	stagePool map[int][]*stageBuf

	// Stats
	CtrlMsgs   int64
	RDMAWrites int64
	RDMAReads  int64
	StagedOps  int64
	EngineOps  int64
	GroupHits  int64
	GroupMiss  int64

	// sched is the per-tenant queueing/fairness state; nil on single-job
	// frameworks, where the control loop is untouched (see tenancy.go).
	sched *tenantSched

	// Metric handles; nil (inert) when metrics are off.
	mGroupHits *metrics.Counter
	mGroupMiss *metrics.Counter
	mQDepth    *metrics.Gauge
	mQDepthMax *metrics.Gauge
	mCrashes   *metrics.Counter // bound only under a crash-configured fault plan
	mRestarts  *metrics.Counter
}

type pairMsg struct {
	rts *rtsMsg
	rtr *rtrMsg
}

type stageBuf struct {
	buf *mem.Buffer
	mr  *verbs.MR
}

func newProxy(fw *Framework, global, node, local int, site *cluster.Site) *Proxy {
	px := &Proxy{
		fw:         fw,
		global:     global,
		node:       node,
		local:      local,
		site:       site,
		ctx:        site.Ctx,
		crossCache: regcache.New[*verbs.MR](fw.cl.Cfg.NP(), 0, func(mr *verbs.MR) { mr.Deregister() }),
		sendQ:      make(map[matchKey][]*rtsMsg),
		recvQ:      make(map[matchKey][]*rtrMsg),
		groups:     make(map[groupKey]*proxyGroup),
		deliveries: make(dlvCounters),
		stagePool:  make(map[int][]*stageBuf),
	}
	if site.Node.DSAEP != nil {
		px.dsaCtx = site.Ctx.Registry().NewCtx(site.Ctx.Name()+".dsa", site.Space, site.Node.DSAEP)
	}
	px.instrument()
	return px
}

// instrument binds the proxy's metric handles; nil-safe and idempotent (the
// series are get-or-create, so a crash that recreates the cross-registration
// cache re-attaches it to the same counters).
func (px *Proxy) instrument() {
	m := px.fw.cl.Met
	px.crossCache.Instrument(m, fmt.Sprintf("cross.proxy%d", px.global))
	if !m.Enabled() {
		return
	}
	name := fmt.Sprintf("proxy%d", px.global)
	px.mGroupHits = m.Counter("core", name, "group_hits")
	px.mGroupMiss = m.Counter("core", name, "group_misses")
	px.mQDepth = m.Gauge("core", name, "queue_depth")
	px.mQDepthMax = m.Gauge("core", name, "queue_depth_max")
	if px.fw.crashesConfigured() {
		// Pre-resolve the crash-path handles so crash/restart never pays a
		// registry lookup (or the fmt.Sprintf key build) at event time. Only
		// bound under a crash-configured plan, so fault-free runs export the
		// exact same series set as before.
		px.mCrashes = m.Counter("core", name, "crashes")
		px.mRestarts = m.Counter("core", name, "restarts")
	}
}

// sampleQueueDepth records the proxy's backlog (control inbox, deferred
// completions, matched-but-untransferred pairs) at group boundaries.
func (px *Proxy) sampleQueueDepth() {
	if px.mQDepth == nil {
		return
	}
	d := float64(px.ctx.InboxLen() + len(px.deferred) + len(px.combined))
	px.mQDepth.Set(d)
	px.mQDepthMax.SetMax(d)
}

// GlobalID returns the proxy's global index.
func (px *Proxy) GlobalID() int { return px.global }

// spans returns the cluster's span collector (nil when tracing is off).
func (px *Proxy) spans() *span.Collector { return px.fw.cl.Spans }

// entity returns the proxy's span/trace entity name.
func (px *Proxy) entity() string { return fmt.Sprintf("proxy%d", px.global) }

// run is the proxy progress engine (Figure 8 / Algorithm 1): drain control
// messages, fire matched transfers, resume blocked group schedules, repeat.
func (px *Proxy) run(p *sim.Proc) {
	px.proc = p
	for !px.fw.stopped {
		if px.crashed {
			// A dead process consumes nothing: anything that arrives while
			// down is silently lost (the reliability layer re-sends or the
			// hosts fail over).
			px.ctx.PollInbox()
			px.deferred, px.combined = nil, nil
			if px.crashed && !px.fw.stopped {
				px.ctx.InboxCond.Wait(p)
			}
			continue
		}
		progressed := false
		if px.sched != nil {
			progressed = px.tenantRound()
		} else {
			for _, pkt := range px.ctx.PollInbox() {
				px.handle(pkt)
				progressed = true
			}
		}
		for len(px.deferred) > 0 {
			// Completions queued while this batch runs go to the spare
			// buffer; the two swap, so a steady loop allocates nothing.
			fns := px.deferred
			px.deferred = px.spare[:0]
			for i, fn := range fns {
				fns[i] = nil
				fn()
			}
			px.spare = fns[:0]
			progressed = true
		}
		if len(px.combined) > 0 {
			pairs := px.combined
			px.combined = nil
			for _, pr := range pairs {
				if s := px.sched; s != nil {
					t := s.ten.TenantOf[pr.rts.Src]
					t0 := px.proc.Now()
					px.transfer(pr)
					s.addBusy(t, px.proc.Now()-t0)
					px.wireCharge(t, pr.rts.Size)
				} else {
					px.transfer(pr)
				}
			}
			progressed = true
		}
		if px.sched != nil {
			if px.tenantGroupRound() {
				progressed = true
			}
		} else {
			for _, g := range px.activeGroups() {
				if px.advanceGroup(g) {
					progressed = true
				}
			}
		}
		if !progressed && px.idle() {
			px.ctx.InboxCond.Wait(p)
		}
	}
}

func (px *Proxy) idle() bool {
	return px.ctx.InboxLen() == 0 && len(px.deferred) == 0 && len(px.combined) == 0
}

// crash kills the proxy process at the scheduled virtual time (handler
// context): all in-memory state — match queues, group cache, delivery
// counters, staging pool — is lost. RDMA operations already on the wire
// still land (the HCA completes them), but the dead software never sends
// their notifications. A heartbeat-timeout later every host is woken so the
// loss can be detected.
func (px *Proxy) crash() {
	if px.crashed {
		return
	}
	fw := px.fw
	now := fw.cl.K.Now()
	px.crashed = true
	px.crashedAt = now
	px.gen++
	px.ctx.PollInbox() // queued packets die with the process
	px.sendQ = make(map[matchKey][]*rtsMsg)
	px.recvQ = make(map[matchKey][]*rtrMsg)
	px.combined, px.deferred = nil, nil
	px.groups = make(map[groupKey]*proxyGroup)
	px.groupList = nil
	px.deliveries = make(dlvCounters)
	px.stagePool = make(map[int][]*stageBuf)
	px.crossCache = regcache.New[*verbs.MR](fw.cl.Cfg.NP(), 0, func(mr *verbs.MR) { mr.Deregister() })
	px.instrument()
	px.initTenancy(fw.tenancy) // queued packets died with the process
	px.mCrashes.Inc()
	if inj := fw.cl.Inj; inj != nil {
		inj.Stats.Crashes++
		inj.Note(now, fmt.Sprintf("proxy%d", px.global), "crash", "process killed")
	}
	fw.cl.K.At(fw.hbTimeout(), func() {
		// The liveness counter in host memory has now been stale for a full
		// timeout: wake every host so Wait/GroupWait loops re-evaluate.
		for _, h := range fw.hosts {
			h.ctx.InboxCond.Broadcast()
		}
	})
}

// restart brings the proxy process back with empty state (handler context).
// The generation bump tells hosts that anything posted before is gone.
func (px *Proxy) restart() {
	if !px.crashed {
		return
	}
	fw := px.fw
	now := fw.cl.K.Now()
	px.crashed = false
	px.gen++
	px.mRestarts.Inc()
	if inj := fw.cl.Inj; inj != nil {
		inj.Stats.Restarts++
		inj.Note(now, fmt.Sprintf("proxy%d", px.global), "restart", "process restarted with empty state")
	}
	px.ctx.InboxCond.Broadcast()
	for _, h := range fw.hosts {
		h.ctx.InboxCond.Broadcast()
	}
}

// handle dispatches one control message (Figure 8's DPU handler).
func (px *Proxy) handle(pkt *verbs.Packet) {
	px.proc.AdvanceBusy(px.fw.cfg.ProxyHandleCost)
	px.CtrlMsgs++
	if sp := px.spans(); sp.Enabled() {
		sp.Instant(px.proc.Now(), px.entity(), pkt.Kind, "")
	}
	switch m := pkt.Payload.(type) {
	case *rtsMsg:
		k := matchKey{m.Src, m.Dst, m.Tag}
		if q := px.recvQ[k]; len(q) > 0 {
			px.recvQ[k] = q[1:]
			px.combined = append(px.combined, pairMsg{rts: m, rtr: q[0]})
		} else {
			px.sendQ[k] = append(px.sendQ[k], m)
		}
	case *rtrMsg:
		k := matchKey{m.Src, m.Dst, m.Tag}
		if q := px.sendQ[k]; len(q) > 0 {
			px.sendQ[k] = q[1:]
			px.combined = append(px.combined, pairMsg{rts: q[0], rtr: m})
		} else {
			px.recvQ[k] = append(px.recvQ[k], m)
		}
	case *groupPacket:
		px.installGroup(m)
	case *greplayMsg:
		px.replayGroup(m)
	case *dlvMsg:
		px.deliveries.barrier(groupKey{m.DstHost, m.DstGroup}).deliver(m.SrcHost)
	case *oneSidedMsg:
		px.handleOneSided(m)
	default:
		panic(fmt.Sprintf("core: proxy %d: unexpected packet %T", px.global, pkt.Payload))
	}
}

// postAction names the instant event a basic-primitive transfer records,
// per proxy-executable datapath: the first RDMA the path posts.
var postAction = map[datapath.Kind]string{
	datapath.KindCrossGVMI: "gvmi-write",
	datapath.KindStaged:    "stage-read",
	datapath.KindDSA:       "dsa-write",
}

// transfer moves one matched basic-primitive pair on the datapath the
// sender chose (carried in the RTS), then FINs both hosts.
func (px *Proxy) transfer(pr pairMsg) {
	dp := datapath.ForKind(pr.rts.Path)
	ts := px.transferSpan(pr, dp.Kind().String())
	if sp := px.spans(); sp.Enabled() {
		sp.Instant(px.proc.Now(), px.entity(), postAction[dp.Kind()],
			fmt.Sprintf("%d->%d size=%d", pr.rts.Src, pr.rtr.Dst, pr.rts.Size))
	}
	dp.Execute(px, datapath.Transfer{
		SrcHost: pr.rts.Src, Size: pr.rts.Size,
		MKey:    pr.rts.MKey,
		SrcAddr: pr.rts.SrcAddr, SrcRKey: pr.rts.SrcRKey,
		DstAddr: pr.rtr.DstAddr, DstRKey: pr.rtr.RKey,
		Span: ts, EndSpan: true,
	}, func() { px.finish(pr) })
}

// crossReg cross-registers a host mkey (through the cache when enabled,
// keyed by source host rank per Section VII-B). The span is created inside
// the create closure so cache hits — which cost nothing — record nothing.
func (px *Proxy) crossReg(srcHost int, info gvmi.MKeyInfo, parent span.ID) *verbs.MR {
	create := func() *verbs.MR {
		var s span.ID
		if sp := px.spans(); sp.Enabled() {
			s = sp.Start(parent, span.ClassHCA, px.entity(), "verbs", "cross_reg")
			sp.AttrInt(s, "size", int64(info.Size))
		}
		mr, err := px.fw.cl.GVMI.CrossRegister(px.proc, px.ctx, info)
		if err != nil {
			panic(fmt.Sprintf("core: proxy %d cross-registration: %v", px.global, err))
		}
		px.spans().End(s)
		return mr
	}
	if !px.fw.cfg.RegCaches {
		return create()
	}
	mr, _ := px.crossCache.GetOrCreate(srcHost, info.Addr, info.Size, create)
	return mr
}

// transferSpan opens the proxy-side "transfer" span of a matched pair,
// parented to the sender's root (0 when tracing is off).
func (px *Proxy) transferSpan(pr pairMsg, mech string) span.ID {
	sp := px.spans()
	if !sp.Enabled() {
		return 0
	}
	ts := sp.Start(pr.rts.Span, span.ClassProxy, px.entity(), "core", "transfer")
	sp.AttrInt(ts, "size", int64(pr.rts.Size))
	sp.AttrStr(ts, "mech", mech)
	if name := px.fw.tenantName(pr.rts.Src); name != "" {
		sp.AttrStr(ts, "tenant", name)
	}
	return ts
}

// finish sends the FIN packets to both hosts of a completed pair. Each FIN
// flight parents to the respective host's root span — the completion
// notification is the tail of that operation's critical path.
func (px *Proxy) finish(pr pairMsg) {
	px.sendFIN(pr.rts.Src, pr.rts.SrcReqID, pr.rts.Span)
	px.sendFIN(pr.rtr.Dst, pr.rtr.DstReqID, pr.rtr.Span)
}

func (px *Proxy) sendFIN(hostRank int, reqID int64, root span.ID) {
	h := px.fw.hosts[hostRank]
	px.ctx.PostSend(px.proc, h.ctx, &verbs.Packet{
		Kind: "fin", Size: px.fw.cfg.CtrlSize, Payload: &finMsg{ReqID: reqID},
		Span: root,
	})
}

// later queues fn for the next engine round (used from completion handlers,
// which run in kernel handler context). A crashed proxy's completions are
// discarded: the data is on the wire regardless, but the dead software
// never acts on the CQE.
func (px *Proxy) later(fn func()) {
	if px.crashed {
		return
	}
	px.deferred = append(px.deferred, fn)
	px.ctx.InboxCond.Broadcast()
}

// getStage returns a registered DPU staging buffer of at least size bytes
// (power-of-two pool; registration is charged to the proxy's ARM core on
// first allocation, recorded under parent when it happens).
func (px *Proxy) getStage(size int, parent span.ID) *stageBuf {
	cls := 1
	for cls < size {
		cls <<= 1
	}
	if pool := px.stagePool[cls]; len(pool) > 0 {
		sb := pool[len(pool)-1]
		px.stagePool[cls] = pool[:len(pool)-1]
		return sb
	}
	buf := px.site.Space.Alloc(cls, px.fw.cl.Cfg.BackedPayload)
	mr := px.ctx.RegisterMRCtx(px.proc, buf.Addr(), cls, parent)
	return &stageBuf{buf: buf, mr: mr}
}

func (px *Proxy) putStage(sb *stageBuf) {
	px.stagePool[sb.buf.Size()] = append(px.stagePool[sb.buf.Size()], sb)
}
