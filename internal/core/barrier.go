package core

// The receive barrier of Algorithm 1 (isRecvBarrierDone) holds a group's
// walk until every delivery it has recorded so far has landed. The
// delivery counters of Section VII-C live in one of two homes: the
// destination proxy's memory, or — when crashes are configured — the
// destination host's memory, where they survive a proxy failure. Both homes
// keep them the same way, in a dlvCounters table with one recvBarrier per
// destination group.
//
// A recvBarrier holds, per source host, the deliveries that have landed and
// the deliveries the installed group's walk expects (cumulative across
// calls), and keeps
//
//	outstanding = Σ over sources of max(0, expected − delivered)
//
// current on every change, so the barrier test is one comparison instead of
// a walk over every source. Deliveries that land before the group is
// installed are counted all the same: the walk's later expectations find
// them already covered.

// dlvCounters is one home of the delivery counters, keyed by destination
// (host, group).
type dlvCounters map[groupKey]*recvBarrier

// recvBarrier is the delivery-counter state of one destination group.
type recvBarrier struct {
	slot        map[int]int32 // source host -> index into counts
	counts      []srcCount
	outstanding int
}

type srcCount struct{ expected, delivered int }

// barrier returns the counters of destination group k, creating them empty.
func (c dlvCounters) barrier(k groupKey) *recvBarrier {
	b := c[k]
	if b == nil {
		b = &recvBarrier{slot: make(map[int]int32)}
		c[k] = b
	}
	return b
}

// delivered returns how many deliveries from src have landed for group k.
func (c dlvCounters) delivered(k groupKey, src int) int {
	if b := c[k]; b != nil {
		if i, ok := b.slot[src]; ok {
			return b.counts[i].delivered
		}
	}
	return 0
}

// count returns the counters of one source, creating them at zero.
func (b *recvBarrier) count(src int) *srcCount {
	i, ok := b.slot[src]
	if !ok {
		i = int32(len(b.counts))
		b.slot[src] = i
		b.counts = append(b.counts, srcCount{})
	}
	return &b.counts[i]
}

// expect records one receive entry of the walk: a delivery from src is now
// required, and it is outstanding unless it has already landed.
func (b *recvBarrier) expect(src int) {
	s := b.count(src)
	s.expected++
	if s.expected > s.delivered {
		b.outstanding++
	}
}

// deliver counts one landed delivery from src, settling an outstanding
// expectation when the walk has already recorded it.
func (b *recvBarrier) deliver(src int) {
	s := b.count(src)
	s.delivered++
	if s.delivered <= s.expected {
		b.outstanding--
	}
}

// satisfied reports whether every expected delivery has landed.
func (b *recvBarrier) satisfied() bool { return b.outstanding == 0 }

// install binds a freshly created proxy group: its walk starts with no
// expectations (a proxy restarted after a crash re-installs groups whose
// counters in host memory already hold landed deliveries).
func (b *recvBarrier) install() {
	for i := range b.counts {
		b.counts[i].expected = 0
	}
	b.outstanding = 0
}
