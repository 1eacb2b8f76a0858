package core

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// replayRig records a group as wide as a 128-rank alltoall (one receive and
// one send per peer slot, all between two ranks on two nodes), installs it
// and warms it with a few replays, then runs measure on rank 0. Rank 1
// replays the group calls more times in lockstep, so measure must call it
// exactly that often too.
func replayRig(t *testing.T, calls int, measure func(h *Host, g *GroupRequest)) {
	t.Helper()
	const width, size = 127, 8
	runFw(t, 2, 1, DefaultConfig(), func(h *Host) {
		peer := 1 - h.Rank()
		send := h.site.Space.Alloc(width*size, false)
		recv := h.site.Space.Alloc(width*size, false)
		g := h.GroupStart()
		for i := 0; i < width; i++ {
			g.Recv(recv.Addr()+mem.Addr(i*size), size, peer, 7)
		}
		for i := 0; i < width; i++ {
			g.Send(send.Addr()+mem.Addr(i*size), size, peer, 7)
		}
		g.End()
		for i := 0; i < 3; i++ {
			h.GroupCall(g)
			h.GroupWait(g)
		}
		if h.Rank() == 0 {
			measure(h, g)
			return
		}
		for i := 0; i < calls; i++ {
			h.GroupCall(g)
			h.GroupWait(g)
		}
	})
}

// A steady-state replay of a recorded group allocates only what travels:
// per send entry the delivery notification, its packet and the RDMA
// completion closure, plus a handful of per-call control packets. Per-send
// completion records are built once at install, and the proxy loop reuses
// its active-group and deferred-completion buffers. The budget pins today's
// count for one replay on each of the two ranks (2 x 127 sends); it was 2688
// before those changes.
func TestGroupReplayAllocBudget(t *testing.T) {
	const runs, budget = 20, 770
	var got float64
	replayRig(t, runs+1, func(h *Host, g *GroupRequest) {
		got = testing.AllocsPerRun(runs, func() {
			h.GroupCall(g)
			h.GroupWait(g)
		})
	})
	if got > budget {
		t.Fatalf("allocs per steady-state group replay = %v, budget %d", got, budget)
	}
}

// The proxy loop's per-pass group scan — collecting the active groups and
// testing each one's receive barrier — must not allocate.
func TestProxyLoopAllocFree(t *testing.T) {
	replayRig(t, 1, func(h *Host, g *GroupRequest) {
		px := h.fw.proxyFor(h.rank)
		h.GroupCall(g)
		for len(px.activeGroups()) == 0 && !g.Done() {
			h.proc.Sleep(10 * sim.Nanosecond) // until the proxy picks the call up
		}
		if n := len(px.activeGroups()); n != 1 {
			t.Errorf("active groups = %d, want 1", n)
		}
		allocs := testing.AllocsPerRun(100, func() {
			for _, pg := range px.activeGroups() {
				px.recvsSatisfied(pg)
			}
		})
		if allocs != 0 {
			t.Errorf("proxy group scan: %v allocs/op, want 0", allocs)
		}
		h.GroupWait(g)
	})
}
