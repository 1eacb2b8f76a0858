package core

import (
	"fmt"

	"repro/internal/datapath"
	"repro/internal/gvmi"
	"repro/internal/mem"
	"repro/internal/span"
	"repro/internal/verbs"
)

// GroupRequest records a complete communication pattern — sends, receives
// and local ordering barriers — for offload as a single unit (the Group
// Primitives of Section VI-B). Typical use, mirroring Listing 5's ring
// broadcast:
//
//	g := h.GroupStart()
//	if rank == 0 {
//	    g.Send(buf, size, right, tag)
//	    g.LocalBarrier()
//	} else {
//	    g.Recv(buf, size, left, tag)
//	    g.LocalBarrier()
//	    g.Send(buf, size, right, tag)
//	}
//	g.End()
//	h.GroupCall(g)   // offload the whole graph to the DPU
//	compute()        // overlap: the DPU progresses the ring
//	h.GroupWait(g)
//
// A request may be re-called; with the group cache enabled (Section VII-D)
// replays send only the request ID to the proxy.
type GroupRequest struct {
	h     *Host
	id    int
	path  datapath.Kind // datapath every send entry executes on
	ops   []GroupOp
	ended bool

	callSeq     int // GroupCall invocations
	doneSeq     int // completed calls (proxy's completion updates)
	sentToProxy bool

	// Crash-tolerance state (populated only when crashes are configured):
	// the gathered wire entries let the host re-execute the pattern itself,
	// and sentGen records the proxy generation the request was installed
	// under so a restart (= lost group cache) is detectable.
	wire    []wireOp
	sentGen int
	perCall map[int]int // recv entries per source host in one call

	// rootByCall remembers each outstanding call's root span so fallback
	// re-execution after a proxy failure stays attributed to the original
	// operation (entries are dropped as calls complete).
	rootByCall map[int]span.ID
}

// recvsPerCall returns how many receive entries one call expects from src.
func (g *GroupRequest) recvsPerCall(src int) int {
	if g.perCall == nil {
		g.perCall = make(map[int]int)
		for _, e := range g.wire {
			if e.Type == OpRecv {
				g.perCall[e.Src]++
			}
		}
	}
	return g.perCall[src]
}

// GroupOp is one recorded entry.
type GroupOp struct {
	Type OpType
	Addr mem.Addr
	Size int
	Peer int // destination (send) or source (recv)
	Tag  int
}

// GroupStart begins recording a new pattern (Group_Offload_start) on the
// framework's default datapath.
func (h *Host) GroupStart() *GroupRequest {
	return h.GroupStartVia(h.fw.DefaultPath())
}

// GroupStartVia begins recording a new pattern whose send entries execute on
// the given proxy datapath. The request's path is fixed at recording time:
// it is baked into the wire entries shipped to the DPU, so replays reuse it.
func (h *Host) GroupStartVia(kind datapath.Kind) *GroupRequest {
	if !kind.Valid() || kind == datapath.KindHostDirect {
		panic(fmt.Sprintf("core: GroupStartVia on non-proxy path %v", kind))
	}
	// As in SendOffloadVia: the recording rank's device decides what the
	// baked-in path degrades to (identity on full-capability profiles).
	kind = datapath.Resolve(kind, h.fw.CapsOfRank(h.rank))
	g := &GroupRequest{h: h, id: h.nextGroup, path: kind}
	h.nextGroup++
	h.groups[g.id] = g
	return g
}

// Path returns the datapath this request's send entries execute on.
func (g *GroupRequest) Path() datapath.Kind { return g.path }

// Done reports whether all issued calls of this request have completed.
func (g *GroupRequest) Done() bool { return g.doneSeq >= g.callSeq }

// Send records an offloaded send (Send_Goffload).
func (g *GroupRequest) Send(addr mem.Addr, size, dst, tag int) {
	g.record(GroupOp{Type: OpSend, Addr: addr, Size: size, Peer: g.h.peer(dst), Tag: tag})
}

// Recv records an offloaded receive (Recv_Goffload).
func (g *GroupRequest) Recv(addr mem.Addr, size, src, tag int) {
	g.record(GroupOp{Type: OpRecv, Addr: addr, Size: size, Peer: g.h.peer(src), Tag: tag})
}

// LocalBarrier records an ordering point (Local_barrier_Goffload): entries
// after it start only when every earlier entry — including receives
// performed by remote proxies — has completed. This is the primitive MPI
// cannot express without blocking the CPU.
func (g *GroupRequest) LocalBarrier() {
	g.record(GroupOp{Type: OpBarrier})
}

func (g *GroupRequest) record(op GroupOp) {
	if g.ended {
		panic("core: group request already ended")
	}
	g.ops = append(g.ops, op)
}

// End finishes recording (Group_Offload_end).
func (g *GroupRequest) End() {
	g.ended = true
}

// Ops returns the recorded entries (for inspection).
func (g *GroupRequest) Ops() []GroupOp { return g.ops }

// GroupCall offloads the recorded pattern to the host's proxy
// (Group_Offload_call, Figure 9). On the first call (or with the group
// cache disabled) it registers all buffers, gathers matching receive-entry
// metadata from the destination hosts, and ships the entire Group_op queue
// as one contiguous packet; replays send only the request ID.
func (h *Host) GroupCall(g *GroupRequest) { h.GroupCallCtx(g, 0) }

// GroupCallCtx is GroupCall carrying span context: parent (usually a
// collective's root span) becomes the causal parent of the host-side call
// work and of the proxy's execution of this call. Timing is identical to
// GroupCall.
func (h *Host) GroupCallCtx(g *GroupRequest, parent span.ID) {
	if !g.ended {
		panic("core: GroupCall before Group_Offload_end")
	}
	t0 := h.proc.Now()
	defer func() { h.OffloadTime += h.proc.Now() - t0 }()
	g.callSeq++
	px := h.fw.proxyFor(h.rank)
	if sp := h.spans(); sp.Enabled() {
		// Host-side call span (registration + gather + packet build) under
		// the root; the proxy's execution span parents to the root directly
		// so the critical path descends into DPU/HCA/wire work.
		gc := sp.Start(parent, span.ClassRank, h.entity(), "core", "group_call")
		sp.AttrInt(gc, "call", int64(g.callSeq))
		sp.AttrStr(gc, "path", g.path.String())
		if g.rootByCall == nil {
			g.rootByCall = make(map[int]span.ID)
		}
		g.rootByCall[g.callSeq] = parent
		h.curSpan = gc
		defer func() {
			h.curSpan = 0
			sp.End(gc)
		}()
	}

	if h.failedOver {
		// The proxy is dead: the host executes the pattern itself.
		if g.wire == nil {
			g.wire = h.buildWire(g, px)
		}
		h.startFallbackCall(g, g.callSeq)
		return
	}

	if h.fw.cfg.GroupCache && g.sentToProxy {
		// Host-side cache hit: "the host sends the request ID to the DPU".
		h.ctx.PostSend(h.proc, px.ctx, &verbs.Packet{
			Kind: "greplay", Size: h.fw.cfg.CtrlSize,
			Payload: &greplayMsg{HostRank: h.rank, GroupID: g.id, CallSeq: g.callSeq, Span: parent},
			Span:    parent,
		})
		if sp := h.spans(); sp.Enabled() {
			sp.Instant(h.proc.Now(), h.entity(), "Group_Offload_call",
				fmt.Sprintf("replay id=%d call=%d", g.id, g.callSeq))
		}
		return
	}

	entries := h.buildWire(g, px)

	// One contiguous Group_Offload_packet to the proxy.
	h.ctx.PostSend(h.proc, px.ctx, &verbs.Packet{
		Kind: "group",
		Size: h.fw.cfg.CtrlSize + len(entries)*h.fw.cfg.GroupOpWireSize,
		Payload: &groupPacket{
			HostRank: h.rank, GroupID: g.id, CallSeq: g.callSeq, Entries: entries, Span: parent,
		},
		Span: parent,
	})
	g.sentToProxy = true
	if h.fw.crashesConfigured() {
		g.wire = entries
		g.sentGen = px.gen
	}
	if sp := h.spans(); sp.Enabled() {
		sp.Instant(h.proc.Now(), h.entity(), "Group_Offload_call",
			fmt.Sprintf("full id=%d entries=%d", g.id, len(entries)))
	}
}

// buildWire performs the gather phase of Group_Offload_call: register every
// buffer, push receive-entry metadata to the source hosts, and match each
// send entry with the metadata gathered from its destination.
func (h *Host) buildWire(g *GroupRequest, px *Proxy) []wireOp {
	// 1. Register buffers: send buffers as the request's datapath demands
	//    (GVMI cache for cross-GVMI, IB cache for staged), receive buffers
	//    through the IB cache — and push each receive entry's metadata to its
	//    source host.
	type sendReg struct {
		mkey gvmi.MKeyInfo
		rkey verbs.Key
	}
	sendRegs := make(map[int]sendReg) // op index -> registration
	for i, op := range g.ops {
		switch op.Type {
		case OpSend:
			var sr sendReg
			switch datapath.ForKind(g.path).SrcReg() {
			case datapath.RegGVMI:
				sr.mkey = h.gvmiRegister(px, op.Addr, op.Size)
			case datapath.RegIB:
				sr.rkey = h.ibRegister(op.Addr, op.Size).RKey()
			default:
				panic(fmt.Sprintf("core: group send on non-proxy path %v", g.path))
			}
			sendRegs[i] = sr
		case OpRecv:
			mr := h.ibRegister(op.Addr, op.Size)
			peer := h.fw.hosts[op.Peer]
			h.ctx.PostSend(h.proc, peer.ctx, &verbs.Packet{
				Kind: "gmeta", Size: h.fw.cfg.CtrlSize,
				Payload: &gmetaMsg{
					DstRank: h.rank, Tag: op.Tag, Size: op.Size,
					DstAddr: op.Addr, RKey: mr.RKey(), DstGroup: g.id,
				},
			})
		}
	}

	// 2. Build wire entries; each send is matched with the corresponding
	//    receive entry gathered from its destination (rank/tag matching).
	entries := make([]wireOp, len(g.ops))
	for i, op := range g.ops {
		w := wireOp{Type: op.Type, Size: op.Size, Tag: op.Tag, Path: g.path}
		switch op.Type {
		case OpSend:
			w.SrcAddr, w.Dst = op.Addr, op.Peer
			w.MKey = sendRegs[i].mkey
			w.SrcRKey = sendRegs[i].rkey
			meta := h.awaitGmeta(op.Peer, op.Tag)
			if meta.Size != op.Size {
				panic(fmt.Sprintf("core: group size mismatch: send %d vs recv %d", op.Size, meta.Size))
			}
			w.DstAddr, w.DstRKey, w.DstGroup = meta.DstAddr, meta.RKey, meta.DstGroup
		case OpRecv:
			w.Src = op.Peer
		}
		entries[i] = w
	}
	return entries
}

// awaitGmeta blocks until receive-entry metadata from dst with the given
// tag has been gathered (FIFO per (dst, tag) pair).
func (h *Host) awaitGmeta(dst, tag int) *gmetaMsg {
	for {
		for i, m := range h.gmetaQ {
			if m.DstRank == dst && m.Tag == tag {
				h.gmetaQ = append(h.gmetaQ[:i], h.gmetaQ[i+1:]...)
				return m
			}
		}
		h.drainInbox()
		found := false
		for _, m := range h.gmetaQ {
			if m.DstRank == dst && m.Tag == tag {
				found = true
				break
			}
		}
		if !found && h.ctx.InboxLen() == 0 {
			h.ctx.InboxCond.Wait(h.proc)
		}
	}
}

// GroupWait blocks until every issued GroupCall of g has completed
// (Group_Wait): the host waits for the completion counter its proxy updates
// after the whole pattern has executed on the DPU.
func (h *Host) GroupWait(g *GroupRequest) {
	h.waitFor(func() bool { return g.doneSeq >= g.callSeq })
	if sp := h.spans(); sp.Enabled() {
		sp.Instant(h.proc.Now(), h.entity(), "Group_Wait",
			fmt.Sprintf("id=%d call=%d", g.id, g.callSeq))
	}
}

// GroupTest polls for completion without blocking.
func (h *Host) GroupTest(g *GroupRequest) bool {
	h.progress()
	return g.doneSeq >= g.callSeq
}
