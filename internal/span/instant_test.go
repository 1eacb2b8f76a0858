package span

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

// analysisView renders everything path analysis derives from a collector
// — root names, every root's critical path, the attribution table and the
// folded stacks — in a form free of span IDs.
func analysisView(t *testing.T, c *Collector) string {
	t.Helper()
	var b strings.Builder
	roots := c.Roots()
	for _, id := range roots {
		s, _ := c.Get(id)
		b.WriteString("root " + s.Layer + "/" + s.Name + "\n")
		b.WriteString(c.FormatPath(id))
	}
	b.WriteString(FormatAttribution(c.Attribution(roots), 0))
	for _, id := range c.RootsNamed("", "") {
		s, _ := c.Get(id)
		b.WriteString("named " + s.Name + "\n")
	}
	if err := c.WriteFolded(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// Instant events: exported to Chrome as thread-scoped "i" events on their
// entity's thread and flagged in JSONL; absent from roots, critical paths,
// attribution and folded stacks; inert on a nil collector; refused and
// counted by a full one; and recorded at 0 allocs/op into a warm collector.
func TestInstantEventsExportAnalysisAllocFree(t *testing.T) {
	want := analysisView(t, sampleCollector())
	c := sampleCollector()
	spans := c.Len()
	c.Instant(5, "rank0", "Send_Offload", "dst=1 size=8192 tag=0")
	c.Instant(25, "n0.dpu", "gvmi-write", "0->1 size=8192")
	c.Instant(90, "proxy9", "FIN", "")
	if c.Len() != spans+3 {
		t.Fatalf("Len = %d after 3 instants on %d spans", c.Len(), spans)
	}
	if got := analysisView(t, c); got != want {
		t.Fatalf("instants changed path analysis:\n--- without ---\n%s--- with ---\n%s", want, got)
	}
	for _, id := range c.Roots() {
		for _, g := range c.CriticalPath(id) {
			if s, _ := c.Get(g.Span); s.Instant {
				t.Fatalf("instant %d on the critical path of root %d", g.Span, id)
			}
		}
	}

	var cb strings.Builder
	if err := c.WriteChromeTrace(&cb); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(cb.String()), &events); err != nil {
		t.Fatalf("trace not valid JSON: %v\n%s", err, cb.String())
	}
	tids := map[string]float64{}
	var inst []map[string]any
	for _, e := range events {
		switch e["ph"] {
		case "M":
			tids[e["args"].(map[string]any)["name"].(string)] = e["tid"].(float64)
		case "i":
			inst = append(inst, e)
		}
	}
	if len(inst) != 3 {
		t.Fatalf("%d instant events in Chrome trace, want 3", len(inst))
	}
	first := inst[0]
	if first["name"] != "Send_Offload" || first["s"] != "t" || first["ts"].(float64) != 0.005 ||
		first["tid"] != tids["rank0"] || first["args"].(map[string]any)["detail"] != "dst=1 size=8192 tag=0" {
		t.Fatalf("first instant = %v (rank0 tid %v)", first, tids["rank0"])
	}
	if _, ok := tids["proxy9"]; !ok {
		t.Fatal("instant-only entity proxy9 got no thread")
	}
	var jb strings.Builder
	if err := c.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(jb.String(), `"instant":true`); n != 3 {
		t.Fatalf("%d JSONL lines flagged instant, want 3", n)
	}

	var nilC *Collector
	nilC.Instant(1, "rank0", "rts", "")
	var nb strings.Builder
	if err := nilC.WriteTimeline(&nb); err != nil || nb.Len() != 0 || nilC.Len() != 0 {
		t.Fatalf("nil collector not inert: err=%v out=%q", err, nb.String())
	}

	full := New(1)
	full.Instant(1, "rank0", "rts", "")
	full.Instant(2, "rank0", "rtr", "")
	if full.Len() != 1 || full.Dropped() != 1 {
		t.Fatalf("instant past the limit: Len=%d Dropped=%d, want 1/1", full.Len(), full.Dropped())
	}

	w := New(0)
	record := func() {
		for i := 0; i < 16; i++ {
			w.Instant(sim.Time(i), "rank0", "Send_Offload", "dst=1")
		}
	}
	record() // warm the span and attr storage
	if allocs := testing.AllocsPerRun(100, func() {
		w.Reset()
		record()
	}); allocs > 0 {
		t.Fatalf("recording instants allocated %.2f objects per cycle when warm, want 0", allocs)
	}
}
