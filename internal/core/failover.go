package core

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/verbs"
)

// This file is the host side of crash tolerance. When the fault plan
// schedules proxy crashes, every host keeps enough state to finish its
// outstanding communication without the DPU:
//
//   - delivery counters (Section VII-C) move into host memory — dlvCtx
//     receives the RDMA counter writes, deduplicated per (call, entry) so a
//     retransmission from a fallback host is counted exactly once;
//   - group requests remember their wire entries (g.wire), so a host can
//     re-execute the whole pattern itself with plain host-NIC RDMA writes —
//     the "host-progressed MPI" fallback. Re-execution is idempotent: data
//     writes repeat byte-identical payloads and notifications are deduped
//     at the destination;
//   - basic-primitive sends fall back to eager host-to-host pushes
//     (foSendMsg), acknowledged by the receiver;
//   - one-sided requests record everything needed to re-post the transfer
//     from the initiating host's own NIC.
//
// Detection is heartbeat-based: a live proxy refreshes a liveness counter
// in host memory (zero wire cost, like the delivery counters); a host
// declares the proxy dead once the counter has been stale for
// HeartbeatTimeout. In the simulation that is equivalent to — and modelled
// as — `crashed && now-crashedAt >= timeout`, with a one-shot kernel timer
// waking the hosts at exactly the detection instant. A proxy that restarts
// is detected through its generation counter: state posted under an older
// generation is gone, so the host fails over just the same (permanently —
// rebinding to a restarted proxy is future work).

// dlvID uniquely identifies one delivery notification.
type dlvID struct {
	src, dst, group, call, entry int
}

// sendRec remembers an outstanding basic-primitive send for fallback.
type sendRec struct {
	req    *OffloadRequest
	dst    int
	tag    int
	size   int
	addr   mem.Addr
	gen    int // proxy generation the RTS was posted under
	foSent bool
}

// recvRec remembers an outstanding basic-primitive receive so an eager
// fallback push can be matched into it.
type recvRec struct {
	req  *OffloadRequest
	src  int
	tag  int
	size int
	addr mem.Addr
}

// osRec remembers an outstanding one-sided request; it carries everything
// needed to re-post the transfer from the host if the executing proxy dies.
type osRec struct {
	req      *OffloadRequest
	proxy    int // executing proxy (global index)
	isPut    bool
	lKey     verbs.Key
	lAddr    mem.Addr
	rKey     verbs.Key
	rAddr    mem.Addr
	size     int
	gen      int
	reissued bool
}

// fbCall is one group call being executed by the host itself, walking the
// same entry queue the proxy would have walked (advanceGroup's algorithm).
type fbCall struct {
	g       *GroupRequest
	call    int
	idx     int
	pending int         // host-posted RDMA writes not yet completed
	need    map[int]int // recv entries accounted so far this call, per src
	span    span.ID     // fallback-execution span, under the call's root
}

// noteDelivery is the counter daemon's accounting step (the destination
// HCA updating a pre-registered counter — no host CPU cost): deduplicate,
// bump, and wake the readers.
func (h *Host) noteDelivery(at sim.Time, m *dlvMsg) {
	id := dlvID{m.SrcHost, m.DstHost, m.DstGroup, m.Call, m.Entry}
	if h.dlvSeen[id] {
		h.DlvDup++
		if inj := h.fw.cl.Inj; inj != nil {
			inj.Note(at, fmt.Sprintf("rank%d", h.rank), "dlv-dup",
				fmt.Sprintf("src=%d group=%d call=%d entry=%d", m.SrcHost, m.DstGroup, m.Call, m.Entry))
		}
		return
	}
	h.dlvSeen[id] = true
	h.dlvCnt.barrier(groupKey{h.rank, m.DstGroup}).deliver(m.SrcHost)
	h.ctx.InboxCond.Broadcast()
	h.fw.proxyFor(h.rank).ctx.InboxCond.Broadcast()
}

// later queues fn for the next waitFor round (used from RDMA completion
// handlers, which cannot post work themselves).
func (h *Host) later(fn func()) {
	h.deferred = append(h.deferred, fn)
	h.ctx.InboxCond.Broadcast()
}

// runDeferred executes queued completion actions in process context.
func (h *Host) runDeferred() {
	for len(h.deferred) > 0 {
		fns := h.deferred
		h.deferred = nil
		for _, fn := range fns {
			fn()
		}
	}
}

// dropRecords forgets fallback bookkeeping for a completed request.
func (h *Host) dropRecords(reqID int64) {
	if h.pendingSends == nil {
		return
	}
	delete(h.pendingSends, reqID)
	delete(h.osPending, reqID)
	for i, rec := range h.pendingRecvs {
		if rec.req.id == reqID {
			h.pendingRecvs = append(h.pendingRecvs[:i], h.pendingRecvs[i+1:]...)
			break
		}
	}
}

// proxyLost reports whether work posted to px under generation gen is gone:
// either the proxy has been silent past the heartbeat timeout, or it came
// back from a restart with a newer generation (empty state).
func (fw *Framework) proxyLost(px *Proxy, gen int, now sim.Time) bool {
	if px.crashed {
		return now-px.crashedAt >= fw.hbTimeout()
	}
	return px.gen > gen
}

// checkRecovery is the host's failure detector, run on every waitFor round:
// it declares the host's own proxy dead (triggering full failover) and
// re-posts one-sided requests whose executing proxy — possibly a remote
// one — has died.
func (h *Host) checkRecovery() {
	fw := h.fw
	now := h.proc.Now()
	if !h.failedOver {
		px := fw.proxyFor(h.rank)
		lost := false
		for id := 0; id < h.nextGroup && !lost; id++ {
			g := h.groups[id]
			if g != nil && g.sentToProxy && g.doneSeq < g.callSeq && fw.proxyLost(px, g.sentGen, now) {
				lost = true
			}
		}
		if !lost {
			for _, rec := range h.pendingSends {
				if !rec.foSent && fw.proxyLost(px, rec.gen, now) {
					lost = true
					break
				}
			}
		}
		if lost {
			h.failover(now)
		}
	}
	if len(h.osPending) > 0 {
		ids := make([]int64, 0, len(h.osPending))
		for id := range h.osPending {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			rec := h.osPending[id]
			if rec.reissued {
				continue
			}
			if fw.proxyLost(fw.proxies[rec.proxy], rec.gen, now) {
				h.reissueOneSided(rec, now)
			}
		}
	}
}

// failover switches the host permanently to host-progressed execution: all
// incomplete group calls are re-executed by the host itself and all
// outstanding basic sends are pushed eagerly to their peers.
func (h *Host) failover(now sim.Time) {
	fw := h.fw
	px := fw.proxyFor(h.rank)
	h.failedOver = true
	h.Failovers++
	h.mHeartbeatLosses.Inc()
	h.mFailovers.Inc()
	if inj := fw.cl.Inj; inj != nil {
		inj.Note(now, fmt.Sprintf("rank%d", h.rank), "heartbeat-loss",
			fmt.Sprintf("proxy%d silent for %s", px.global, fw.hbTimeout()))
		inj.Note(now, fmt.Sprintf("rank%d", h.rank), "failover",
			"switching to host-progressed fallback")
	}
	for id := 0; id < h.nextGroup; id++ {
		g := h.groups[id]
		if g == nil || !g.sentToProxy || g.doneSeq >= g.callSeq {
			continue
		}
		for c := g.doneSeq + 1; c <= g.callSeq; c++ {
			h.startFallbackCall(g, c)
		}
	}
	ids := make([]int64, 0, len(h.pendingSends))
	for id := range h.pendingSends {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if rec := h.pendingSends[id]; !rec.foSent {
			h.foSendNow(rec)
		}
	}
}

// handleGroupFail reacts to a proxy that lost its group cache in a restart:
// the replayed call cannot run on the DPU, so the host takes over.
func (h *Host) handleGroupFail(m *gfailMsg) {
	if !h.failedOver {
		h.failover(h.proc.Now())
		return
	}
	// Already failed over: make sure the reported call is queued.
	g := h.groups[m.GroupID]
	if g == nil {
		return
	}
	queued := g.doneSeq
	for _, fb := range h.fbRun {
		if fb.g == g && fb.call > queued {
			queued = fb.call
		}
	}
	for c := queued + 1; c <= g.callSeq; c++ {
		h.startFallbackCall(g, c)
	}
}

// startFallbackCall queues one group call for host-progressed execution.
// The re-execution stays attributed to the call's original root span.
func (h *Host) startFallbackCall(g *GroupRequest, call int) {
	if g.wire == nil {
		panic(fmt.Sprintf("core: rank %d fallback for group %d with no wire entries", h.rank, g.id))
	}
	fb := &fbCall{g: g, call: call, need: make(map[int]int)}
	if sp := h.spans(); sp.Enabled() {
		fb.span = sp.Start(g.rootByCall[call], span.ClassRank, h.entity(), "core", "fallback_exec")
		sp.AttrInt(fb.span, "call", int64(call))
	}
	h.fbRun = append(h.fbRun, fb)
	h.FallbackCalls++
	if sp := h.spans(); sp.Enabled() {
		sp.Instant(h.proc.Now(), h.entity(), "fallback-call",
			fmt.Sprintf("id=%d call=%d", g.id, call))
	}
}

// progressFallback advances queued fallback calls in order (calls of one
// host are sequential, like the proxy's engine).
func (h *Host) progressFallback() {
	for len(h.fbRun) > 0 {
		if !h.advanceFallback(h.fbRun[0]) {
			return
		}
		h.fbRun = h.fbRun[1:]
	}
}

// advanceFallback walks one call's entry queue exactly like the proxy's
// advanceGroup: post sends, account receives, hold at barriers until local
// completions and expected deliveries catch up. Returns true when the call
// has fully completed.
func (h *Host) advanceFallback(fb *fbCall) bool {
	g := fb.g
	for fb.idx < len(g.wire) {
		e := &g.wire[fb.idx]
		switch e.Type {
		case OpSend:
			h.fbPostSend(fb, fb.idx)
			fb.idx++
		case OpRecv:
			fb.need[e.Src]++
			fb.idx++
		case OpBarrier:
			if fb.pending > 0 || !h.fbRecvsOK(fb) {
				return false
			}
			fb.idx++
		}
	}
	if fb.pending > 0 || !h.fbRecvsOK(fb) {
		return false
	}
	if fb.call > g.doneSeq {
		g.doneSeq = fb.call
	}
	h.spans().End(fb.span)
	delete(g.rootByCall, fb.call)
	if sp := h.spans(); sp.Enabled() {
		sp.Instant(h.proc.Now(), h.entity(), "fallback-complete",
			fmt.Sprintf("id=%d call=%d", g.id, fb.call))
	}
	return true
}

// fbRecvsOK checks the host-memory delivery counters against what this call
// requires so far: all prior calls' deliveries plus the entries walked in
// this call.
func (h *Host) fbRecvsOK(fb *fbCall) bool {
	g := fb.g
	for src, j := range fb.need {
		if h.dlvCnt.delivered(groupKey{h.rank, g.id}, src) < (fb.call-1)*g.recvsPerCall(src)+j {
			return false
		}
	}
	return true
}

// fbPostSend re-executes one send entry from the host's own NIC: a direct
// RDMA write into the destination buffer (the gathered wire entry has its
// address and rkey), followed by the deduplicated delivery notification.
func (h *Host) fbPostSend(fb *fbCall, idx int) {
	g := fb.g
	e := &g.wire[idx]
	h.curSpan = fb.span
	mr := h.ibRegister(e.SrcAddr, e.Size)
	h.curSpan = 0
	fb.pending++
	h.FallbackWrites++
	if sp := h.spans(); sp.Enabled() {
		sp.Instant(h.proc.Now(), h.entity(), "fallback-write",
			fmt.Sprintf("->%d size=%d call=%d entry=%d", e.Dst, e.Size, fb.call, idx))
	}
	callNum, entry, dst, dstGroup := fb.call, idx, e.Dst, e.DstGroup
	err := h.ctx.PostWrite(h.proc, verbs.WriteOp{
		LocalKey: mr.LKey(), LocalAddr: e.SrcAddr,
		RemoteKey: e.DstRKey, RemoteAddr: e.DstAddr,
		Size: e.Size,
		Span: fb.span,
		OnRemoteComplete: func(sim.Time) {
			h.later(func() {
				fb.pending--
				h.sendDlv(dst, dstGroup, callNum, entry, fb.span)
			})
		},
	})
	if err != nil {
		panic(fmt.Sprintf("core: rank %d fallback write: %v", h.rank, err))
	}
}

// sendDlv posts a delivery-counter write to the destination host's memory
// (process context).
func (h *Host) sendDlv(dst, dstGroup, call, entry int, parent span.ID) {
	peer := h.fw.hosts[dst]
	h.ctx.PostSend(h.proc, peer.dlvCtx, &verbs.Packet{
		Kind: "dlv", Size: h.fw.cfg.CtrlSize,
		Payload: &dlvMsg{
			SrcHost: h.rank, DstHost: dst, DstGroup: dstGroup,
			Call: call, Entry: entry,
		},
		Span: parent,
	})
}

// foSendNow pushes an outstanding basic send eagerly to the peer host.
func (h *Host) foSendNow(rec *sendRec) {
	rec.foSent = true
	h.FoSends++
	var data []byte
	if d := h.site.Space.ReadAt(rec.addr, rec.size); d != nil {
		data = make([]byte, rec.size)
		copy(data, d)
	}
	peer := h.fw.hosts[rec.dst]
	h.ctx.PostSend(h.proc, peer.ctx, &verbs.Packet{
		Kind: "fosend", Size: h.fw.cfg.CtrlSize + rec.size,
		Payload: &foSendMsg{
			Src: h.rank, Dst: rec.dst, Tag: rec.tag, Size: rec.size,
			ReqID: rec.req.id, Data: data, Span: rec.req.span,
		},
		Span: rec.req.span,
	})
	if sp := h.spans(); sp.Enabled() {
		sp.Instant(h.proc.Now(), h.entity(), "fosend",
			fmt.Sprintf("dst=%d size=%d tag=%d", rec.dst, rec.size, rec.tag))
	}
}

// takeFoSend removes and returns a queued eager push matching (src, tag).
func (h *Host) takeFoSend(src, tag int) *foSendMsg {
	for i, m := range h.foQ {
		if m.Src == src && m.Tag == tag {
			h.foQ = append(h.foQ[:i], h.foQ[i+1:]...)
			return m
		}
	}
	return nil
}

// handleFoSend matches an eager fallback push against a pending receive
// (FIFO per (src, tag), like the proxy's match queues) or parks it until
// the receive is posted.
func (h *Host) handleFoSend(m *foSendMsg) {
	for i, rec := range h.pendingRecvs {
		if rec.src == m.Src && rec.tag == m.Tag {
			h.pendingRecvs = append(h.pendingRecvs[:i], h.pendingRecvs[i+1:]...)
			if m.Data != nil {
				h.site.Space.WriteAt(rec.addr, m.Data, m.Size)
			}
			rec.req.done = true
			delete(h.reqs, rec.req.id)
			h.spans().End(rec.req.span)
			h.foAck(m)
			return
		}
	}
	h.foQ = append(h.foQ, m)
}

// foAck acknowledges an eager push so the sender's request completes. The
// ack flight parents to the sender's root span (carried in the push).
func (h *Host) foAck(m *foSendMsg) {
	peer := h.fw.hosts[m.Src]
	h.ctx.PostSend(h.proc, peer.ctx, &verbs.Packet{
		Kind: "foack", Size: h.fw.cfg.CtrlSize, Payload: &foAckMsg{ReqID: m.ReqID},
		Span: m.Span,
	})
}

// reissueOneSided re-posts a one-sided transfer from the initiating host's
// own NIC after the executing proxy died. The recorded window keys resolve
// on the host exactly as they did on the proxy, so the re-execution is
// byte-identical; a late FIN from the original attempt is ignored by the
// request table (idempotent completion).
func (h *Host) reissueOneSided(rec *osRec, now sim.Time) {
	rec.reissued = true
	h.OsReissues++
	if inj := h.fw.cl.Inj; inj != nil {
		inj.Note(now, fmt.Sprintf("rank%d", h.rank), "1sided-reissue",
			fmt.Sprintf("proxy%d dead, re-posting size=%d", rec.proxy, rec.size))
	}
	complete := func(sim.Time) {
		h.later(func() {
			if q, ok := h.reqs[rec.req.id]; ok {
				q.done = true
				delete(h.reqs, rec.req.id)
				h.dropRecords(rec.req.id)
				h.spans().End(q.span)
			}
		})
	}
	if rec.isPut {
		err := h.ctx.PostWrite(h.proc, verbs.WriteOp{
			LocalKey: rec.lKey, LocalAddr: rec.lAddr,
			RemoteKey: rec.rKey, RemoteAddr: rec.rAddr,
			Size: rec.size, Span: rec.req.span, OnRemoteComplete: complete,
		})
		if err != nil {
			panic(fmt.Sprintf("core: rank %d one-sided reissue: %v", h.rank, err))
		}
		return
	}
	err := h.ctx.PostRead(h.proc, verbs.ReadOp{
		LocalKey: rec.lKey, LocalAddr: rec.lAddr,
		RemoteKey: rec.rKey, RemoteAddr: rec.rAddr,
		Size: rec.size, Span: rec.req.span, OnComplete: complete,
	})
	if err != nil {
		panic(fmt.Sprintf("core: rank %d one-sided reissue: %v", h.rank, err))
	}
}
