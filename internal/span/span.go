// Package span is the causal tracing layer: a tree of virtual-time spans
// connecting each application-level operation (an MPI Isend, a collective
// call) to the core proxy/group work, verbs registrations and RDMA
// operations, and fabric injection + wire flights it spawned. Where
// internal/metrics answers "how much in total", spans answer "why did THIS
// operation take THIS long" — the critical-path and attribution analyses in
// analysis.go turn a span tree into a per-layer latency breakdown.
//
// The same collector also answers "what happened when": instant events
// (Instant) are zero-duration, parentless records of one protocol step
// (RTS sent, FIN received, group executed) or fault/recovery action (drop,
// retry, crash, failover) on one entity — the paper's Figure 1 timeline as
// data. Instants are exported alongside spans but never take part in path
// analysis: they are not roots, never lie on a critical path, and add
// nothing to attribution or folded stacks.
//
// The package follows the same zero-overhead discipline as
// internal/metrics: a nil *Collector is fully usable (every method is a
// nil-safe no-op, Start returns the zero ID), and no method ever consumes
// virtual time — the collector only reads sim.Clock, it never schedules
// events or advances processes. Attaching a live collector must not change
// any measured timing; the bench guards pin this bit-exactly against the
// fig13 baseline.
package span

import "repro/internal/sim"

// ID names one span. The zero ID means "no span": it is what a nil or full
// collector hands out, what un-instrumented context fields carry, and a
// valid parent for roots. Every operation on ID 0 is a no-op.
type ID int64

// Class is the entity class that owns a span's time — the paper's four
// processors of interest.
type Class uint8

const (
	// ClassNone is the zero class (unset).
	ClassNone Class = iota
	// ClassRank is a host process (CPU time on the host).
	ClassRank
	// ClassProxy is a DPU proxy process (ARM time on the BlueField).
	ClassProxy
	// ClassHCA is a NIC: posting overhead, injection serialization, DMA.
	ClassHCA
	// ClassWire is the fabric link: time in flight between two ports.
	ClassWire
)

// String returns the lowercase class name used in exports.
func (c Class) String() string {
	switch c {
	case ClassRank:
		return "rank"
	case ClassProxy:
		return "proxy"
	case ClassHCA:
		return "hca"
	case ClassWire:
		return "wire"
	}
	return "none"
}

// Attr is one typed key/value attribute attached to a span. Exactly one of
// Str/Int is meaningful, selected by IsInt.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	IsInt bool
}

// Span is one recorded interval. Begin/End are virtual times; End is only
// meaningful when Ended is true (a span that was never ended — e.g. an
// operation still in flight when the run stopped — stays open and is
// excluded from path analysis). An instant event is a Span with Instant
// set: Begin == End, no parent or class, Name is the action and the
// optional "detail" string attribute describes it.
type Span struct {
	ID      ID
	Parent  ID
	Class   Class
	Entity  string // owning instance: "rank3", "proxy1", "n0.dpu", "n0.dpu->n1.host"
	Layer   string // originating layer: "mpi", "coll", "core", "verbs", "fabric"
	Name    string // operation: "ialltoall", "group_exec", "rdma_write", "wire", ...
	Begin   sim.Time
	End     sim.Time
	Ended   bool
	Instant bool
	Attrs   []Attr
}

// Dur returns the span's duration (0 for open spans).
func (s *Span) Dur() sim.Time {
	if !s.Ended {
		return 0
	}
	return s.End - s.Begin
}

// Collector records spans. Spans are stored in creation order (which is
// deterministic under the simulation's deterministic scheduling), indexed
// by ID = slice index + 1. The simulation is single-threaded, so no
// locking is needed.
//
// A nil Collector is inert: Enabled reports false, Start returns 0, and
// every other method returns immediately.
type Collector struct {
	clock   sim.Clock
	limit   int // max recorded spans; 0 = unbounded
	spans   []Span
	dropped int64
}

// New returns an empty collector. limit bounds the number of recorded
// spans (0 = unbounded); once full, Start counts the drop and returns 0,
// so the subtree rooted at a dropped span simply isn't recorded.
func New(limit int) *Collector { return &Collector{limit: limit} }

// Enabled reports whether spans are being collected (false for nil).
func (c *Collector) Enabled() bool { return c != nil }

// AttachClock binds the virtual clock used by Start/End. cluster.New calls
// this with the kernel; until then (or on a nil collector) the convenience
// Start/End record time 0.
func (c *Collector) AttachClock(clk sim.Clock) {
	if c == nil {
		return
	}
	c.clock = clk
}

func (c *Collector) now() sim.Time {
	if c == nil || c.clock == nil {
		return 0
	}
	return c.clock.Now()
}

// StartAt opens a span beginning at the explicit virtual time at and
// returns its ID (0 when the collector is nil or full).
func (c *Collector) StartAt(parent ID, class Class, entity, layer, name string, at sim.Time) ID {
	if c == nil {
		return 0
	}
	s := c.slot()
	if s == nil {
		return 0
	}
	s.Parent, s.Class = parent, class
	s.Entity, s.Layer, s.Name = entity, layer, name
	s.Begin = at
	return s.ID
}

// Instant records a zero-duration event at virtual time at on entity's
// track: action names what happened, detail (optional) describes it.
// Instants are parentless but are not roots; see the package comment.
// Like StartAt, a full collector counts the drop instead.
func (c *Collector) Instant(at sim.Time, entity, action, detail string) {
	if c == nil {
		return
	}
	s := c.slot()
	if s == nil {
		return
	}
	s.Entity, s.Name = entity, action
	s.Begin, s.End, s.Ended, s.Instant = at, at, true, true
	if detail != "" {
		s.Attrs = append(s.Attrs, Attr{Key: "detail", Str: detail})
	}
}

// slot appends a zeroed span with its ID assigned, or counts a drop and
// returns nil when the limit is reached. A slot recycled by Reset keeps
// its Attrs backing array, so steady-state recording (begin/end/attr,
// instants) allocates nothing, like the kernel's event arena.
func (c *Collector) slot() *Span {
	if c.limit > 0 && len(c.spans) >= c.limit {
		c.dropped++
		return nil
	}
	n := len(c.spans)
	if n < cap(c.spans) {
		c.spans = c.spans[:n+1]
		s := &c.spans[n]
		*s = Span{ID: ID(n + 1), Attrs: s.Attrs[:0]}
		return s
	}
	c.spans = append(c.spans, Span{ID: ID(n + 1)})
	return &c.spans[n]
}

// Reset forgets every recorded span and drop count while keeping the span
// and attribute storage for reuse, so a collector recycled across
// measurement iterations records at 0 allocs/op once warm. Outstanding IDs
// from before the Reset must not be used afterwards.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	c.spans = c.spans[:0]
	c.dropped = 0
}

// Start opens a span beginning now (per the attached clock).
func (c *Collector) Start(parent ID, class Class, entity, layer, name string) ID {
	if c == nil {
		return 0
	}
	return c.StartAt(parent, class, entity, layer, name, c.now())
}

// EndAt closes span id at the explicit virtual time at. The first End
// wins: closing an already-ended span (or ID 0) is a no-op, which makes
// completion paths with multiple observers (Wait vs Test, FIN vs failover
// ack) safe to instrument independently.
func (c *Collector) EndAt(id ID, at sim.Time) {
	if c == nil || id <= 0 || int(id) > len(c.spans) {
		return
	}
	s := &c.spans[id-1]
	if s.Ended {
		return
	}
	s.End = at
	s.Ended = true
}

// End closes span id now (per the attached clock).
func (c *Collector) End(id ID) {
	if c == nil {
		return
	}
	c.EndAt(id, c.now())
}

// AttrInt attaches an integer attribute to span id.
func (c *Collector) AttrInt(id ID, key string, v int64) {
	if c == nil || id <= 0 || int(id) > len(c.spans) {
		return
	}
	s := &c.spans[id-1]
	s.Attrs = append(s.Attrs, Attr{Key: key, Int: v, IsInt: true})
}

// AttrStr attaches a string attribute to span id.
func (c *Collector) AttrStr(id ID, key, v string) {
	if c == nil || id <= 0 || int(id) > len(c.spans) {
		return
	}
	s := &c.spans[id-1]
	s.Attrs = append(s.Attrs, Attr{Key: key, Str: v})
}

// Len reports the number of recorded spans.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	return len(c.spans)
}

// Dropped reports how many Start calls were refused by the limit.
func (c *Collector) Dropped() int64 {
	if c == nil {
		return 0
	}
	return c.dropped
}

// Get returns span id by value (ok=false for 0, out of range, or nil).
func (c *Collector) Get(id ID) (Span, bool) {
	if c == nil || id <= 0 || int(id) > len(c.spans) {
		return Span{}, false
	}
	return c.spans[id-1], true
}

// Spans returns the recorded spans in creation order. The slice is the
// collector's backing store — callers must not modify it.
func (c *Collector) Spans() []Span {
	if c == nil {
		return nil
	}
	return c.spans
}

// Roots returns the IDs of all spans with no parent, in creation order.
// Instant events are not roots.
func (c *Collector) Roots() []ID {
	if c == nil {
		return nil
	}
	var ids []ID
	for i := range c.spans {
		if c.spans[i].Parent == 0 && !c.spans[i].Instant {
			ids = append(ids, c.spans[i].ID)
		}
	}
	return ids
}

// RootsNamed returns root spans filtered by layer and name (either may be
// "" for any), in creation order. Bench helpers use this to pick out the
// measured collective roots.
func (c *Collector) RootsNamed(layer, name string) []ID {
	if c == nil {
		return nil
	}
	var ids []ID
	for i := range c.spans {
		s := &c.spans[i]
		if s.Parent != 0 || s.Instant {
			continue
		}
		if layer != "" && s.Layer != layer {
			continue
		}
		if name != "" && s.Name != name {
			continue
		}
		ids = append(ids, s.ID)
	}
	return ids
}
