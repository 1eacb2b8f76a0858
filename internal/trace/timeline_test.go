// Package trace holds the tests of the protocol-event timeline: the
// instant events (span.Collector.Instant) that record each RTS, FIN,
// group execution and fault/recovery step, read back through
// WriteTimeline and the Chrome trace export. The directory has no
// production code; the events live on span.Collector.
package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/span"
)

// timeline returns the fields of each WriteTimeline line: time, entity,
// action and (when present) detail.
func timeline(t *testing.T, c *span.Collector) [][]string {
	t.Helper()
	var b strings.Builder
	if err := c.WriteTimeline(&b); err != nil {
		t.Fatalf("WriteTimeline: %v", err)
	}
	var rows [][]string
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if line != "" {
			rows = append(rows, strings.Fields(line))
		}
	}
	return rows
}

func TestNilLogIsSafe(t *testing.T) {
	var c *span.Collector
	c.Instant(1, "x", "y", "z")
	c.Reset()
	if c.Enabled() || c.Len() != 0 || c.Dropped() != 0 || c.Spans() != nil || timeline(t, c) != nil {
		t.Fatal("nil collector records instants")
	}
}

func TestAddAndOrdering(t *testing.T) {
	c := span.New(0)
	c.Instant(30, "b", "act", "")
	c.Instant(10, "a", "act", "")
	c.Instant(30, "a", "first-at-30", "") // same time: stable order
	rows := timeline(t, c)
	if len(rows) != 3 || rows[0][0] != "10ns" || rows[1][1] != "b" || rows[2][2] != "first-at-30" {
		t.Fatalf("ordering wrong: %v", rows)
	}
}

func TestLimitCaps(t *testing.T) {
	c := span.New(2)
	for i := 0; i < 5; i++ {
		c.Instant(sim.Time(i), "e", "a", "")
	}
	if c.Len() != 2 || c.Dropped() != 3 {
		t.Fatalf("Len = %d Dropped = %d, want 2/3", c.Len(), c.Dropped())
	}
}

// The timeline lists only instants, in aligned columns; spans recorded on
// the same collector are left out.
func TestFilterAndTimeline(t *testing.T) {
	c := span.New(0)
	c.Instant(1, "rank0", "Send_Offload", "dst=1")
	id := c.StartAt(0, span.ClassRank, "rank0", "mpi", "isend", 0)
	c.EndAt(id, 4)
	c.Instant(2, "proxy0", "rts", "")
	c.Instant(3, "rank1", "FIN", "req=1")
	var b strings.Builder
	if err := c.WriteTimeline(&b); err != nil {
		t.Fatalf("WriteTimeline: %v", err)
	}
	want := "" +
		"         1ns  rank0   Send_Offload  dst=1\n" +
		"         2ns  proxy0  rts           \n" +
		"         3ns  rank1   FIN           req=1\n"
	if b.String() != want {
		t.Fatalf("timeline:\n%q\nwant\n%q", b.String(), want)
	}
}

// Dropped at exact-limit boundaries: filling a collector to precisely its
// limit refuses nothing; every later instant is refused and counted, and
// the instants already recorded are kept.
func TestDroppedExactLimitBoundary(t *testing.T) {
	c := span.New(3)
	for i := 0; i < 3; i++ {
		c.Instant(sim.Time(i), "e", "a", "")
	}
	if c.Dropped() != 0 || c.Len() != 3 {
		t.Fatalf("at limit: Dropped=%d Len=%d, want 0/3", c.Dropped(), c.Len())
	}
	c.Instant(3, "e", "a", "")
	if c.Dropped() != 1 || c.Len() != 3 {
		t.Fatalf("one past limit: Dropped=%d Len=%d, want 1/3", c.Dropped(), c.Len())
	}
	c.Instant(4, "e", "a", "")
	if c.Dropped() != 2 {
		t.Fatalf("two past limit: Dropped=%d, want 2", c.Dropped())
	}
	// Unbounded and limit-1 edge cases.
	u := span.New(0)
	for i := 0; i < 100; i++ {
		u.Instant(sim.Time(i), "e", "a", "")
	}
	if u.Dropped() != 0 || u.Len() != 100 {
		t.Fatalf("unbounded: Dropped=%d Len=%d", u.Dropped(), u.Len())
	}
	one := span.New(1)
	one.Instant(1, "e", "first", "")
	one.Instant(2, "e", "second", "")
	if rows := timeline(t, one); one.Dropped() != 1 || len(rows) != 1 || rows[0][2] != "first" {
		t.Fatalf("limit-1 collector: Dropped=%d timeline=%v", one.Dropped(), rows)
	}
}

var errShort = errors.New("short write")

// failWriter accepts n writes, then fails every later one.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n == 0 {
		return 0, errShort
	}
	f.n--
	return len(p), nil
}

// WriteTimeline propagates the first write error instead of silently
// truncating.
func TestTimelineWriteError(t *testing.T) {
	c := span.New(0)
	c.Instant(1, "rank0", "a", "")
	c.Instant(2, "rank1", "b", "")
	if err := c.WriteTimeline(&failWriter{n: 1}); err != errShort {
		t.Fatalf("WriteTimeline error = %v, want %v", err, errShort)
	}
	if err := c.WriteTimeline(&strings.Builder{}); err != nil {
		t.Fatalf("WriteTimeline on good writer: %v", err)
	}
}

func TestUnboundedLogDropsNothing(t *testing.T) {
	c := span.New(0)
	for i := 0; i < 1000; i++ {
		c.Instant(sim.Time(i), "rank0", "op", "")
	}
	if c.Len() != 1000 || c.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d", c.Len(), c.Dropped())
	}
}

// A full collector keeps the earliest-recorded instants, listed in
// recording order when their times are equal.
func TestRingKeepsInsertionOrderForEqualTimes(t *testing.T) {
	c := span.New(3)
	for i := 0; i < 7; i++ {
		c.Instant(5, "e", fmt.Sprintf("op%d", i), "") // all at the same instant
	}
	rows := timeline(t, c)
	want := []string{"op0", "op1", "op2"}
	if len(rows) != len(want) {
		t.Fatalf("timeline = %v, want actions %v", rows, want)
	}
	for i, r := range rows {
		if r[2] != want[i] {
			t.Fatalf("event %d = %q, want %q", i, r[2], want[i])
		}
	}
}

// The Chrome export must be valid JSON with the documented shape: one "M"
// thread_name record per entity plus one thread-scoped "i" instant per
// event, timestamped in microseconds.
func TestWriteChromeTraceShape(t *testing.T) {
	c := span.New(0)
	c.Instant(1500, "rank0", "send-offload", "dst=1")
	c.Instant(2500, "proxy0", "RTS", "")
	c.Instant(3500, "rank0", "FIN", "req=1")

	var b strings.Builder
	if err := c.WriteChromeTrace(&b); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var events []struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		Scope string         `json:"s"`
		TS    float64        `json:"ts"`
		TID   int            `json:"tid"`
		Args  map[string]any `json:"args"`
	}
	if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	var meta, inst int
	tidByName := map[string]int{}
	for _, e := range events {
		switch e.Phase {
		case "M":
			meta++
			name, _ := e.Args["name"].(string)
			if e.Name != "thread_name" || name == "" {
				t.Fatalf("bad metadata event: %+v", e)
			}
			tidByName[name] = e.TID
		case "i":
			inst++
			if e.Scope != "t" {
				t.Fatalf("instant %q not thread-scoped: s=%q", e.Name, e.Scope)
			}
		default:
			t.Fatalf("unexpected phase %q", e.Phase)
		}
	}
	if meta != 2 {
		t.Fatalf("want 2 thread_name records (rank0, proxy0), got %d", meta)
	}
	if inst != 3 {
		t.Fatalf("want 3 instants, got %d", inst)
	}
	// Instants reference their entity's tid and convert ns -> us.
	for _, e := range events {
		if e.Phase != "i" {
			continue
		}
		switch e.Name {
		case "send-offload":
			if e.TS != 1.5 || e.TID != tidByName["rank0"] {
				t.Fatalf("send-offload ts=%v tid=%d", e.TS, e.TID)
			}
			if e.Args["detail"] != "dst=1" {
				t.Fatalf("detail = %v", e.Args["detail"])
			}
		case "RTS":
			if e.TS != 2.5 || e.TID != tidByName["proxy0"] {
				t.Fatalf("RTS ts=%v tid=%d", e.TS, e.TID)
			}
		}
	}
}

// Nil and empty collectors still produce a parseable document: an empty —
// not null — event array.
func TestWriteChromeTraceEmpty(t *testing.T) {
	for _, c := range []*span.Collector{nil, span.New(0)} {
		var b strings.Builder
		if err := c.WriteChromeTrace(&b); err != nil {
			t.Fatalf("WriteChromeTrace: %v", err)
		}
		var events []any
		if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
			t.Fatalf("invalid JSON: %v", err)
		}
		if events == nil || len(events) != 0 {
			t.Fatalf("events = %v, want an empty array", events)
		}
	}
}

// Reset empties the collector but keeps its storage, so refills up to the
// previous high-water mark record into existing slots.
func TestResetReusesStorage(t *testing.T) {
	c := span.New(0)
	for i := 0; i < 64; i++ {
		c.Instant(sim.Time(i), "rank0", "act", "detail")
	}
	c.Reset()
	if c.Len() != 0 || c.Dropped() != 0 || timeline(t, c) != nil {
		t.Fatalf("Reset left state behind: len=%d dropped=%d", c.Len(), c.Dropped())
	}
	allocs := testing.AllocsPerRun(50, func() {
		c.Reset()
		for i := 0; i < 64; i++ {
			c.Instant(sim.Time(i), "rank0", "act", "detail")
		}
	})
	if allocs > 0 {
		t.Fatalf("refill after Reset allocated %.1f objects per run, want 0", allocs)
	}
}

// Once the collector is full, Instant only counts the drop: the steady
// state allocates nothing no matter how many events stream through.
func TestRingSteadyStateAllocFree(t *testing.T) {
	c := span.New(128)
	for i := 0; i < 128; i++ {
		c.Instant(sim.Time(i), "rank0", "act", "detail")
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			c.Instant(sim.Time(i), "rank0", "act", "detail")
		}
	})
	if allocs > 0 {
		t.Fatalf("full-collector Instant allocated %.1f objects per run, want 0", allocs)
	}
	if c.Len() != 128 {
		t.Fatalf("Len = %d, want 128", c.Len())
	}
}
