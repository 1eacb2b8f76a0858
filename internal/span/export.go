package span

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/sim"
)

// jsonSpan is the JSONL wire form of one span. Field order is fixed by the
// struct, so output is deterministic line by line.
type jsonSpan struct {
	ID      ID              `json:"id"`
	Parent  ID              `json:"parent,omitempty"`
	Class   string          `json:"class"`
	Entity  string          `json:"entity"`
	Layer   string          `json:"layer"`
	Name    string          `json:"name"`
	Begin   sim.Time        `json:"begin_ns"`
	End     sim.Time        `json:"end_ns"`
	Open    bool            `json:"open,omitempty"`
	Instant bool            `json:"instant,omitempty"`
	Attrs   json.RawMessage `json:"attrs,omitempty"`
}

func encodeAttrs(attrs []Attr) json.RawMessage {
	if len(attrs) == 0 {
		return nil
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range attrs {
		if i > 0 {
			b.WriteByte(',')
		}
		k, _ := json.Marshal(a.Key)
		b.Write(k)
		b.WriteByte(':')
		if a.IsInt {
			fmt.Fprintf(&b, "%d", a.Int)
		} else {
			v, _ := json.Marshal(a.Str)
			b.Write(v)
		}
	}
	b.WriteByte('}')
	return json.RawMessage(b.String())
}

// WriteJSONL writes every recorded span as one JSON object per line, in
// creation (= deterministic) order. Open spans are marked "open" with
// end_ns equal to begin_ns; instant events are marked "instant".
func (c *Collector) WriteJSONL(w io.Writer) error {
	if c == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for i := range c.spans {
		s := &c.spans[i]
		js := jsonSpan{
			ID: s.ID, Parent: s.Parent, Class: s.Class.String(),
			Entity: s.Entity, Layer: s.Layer, Name: s.Name,
			Begin: s.Begin, End: s.End, Open: !s.Ended, Instant: s.Instant,
			Attrs: encodeAttrs(s.Attrs),
		}
		if !s.Ended {
			js.End = s.Begin
		}
		if err := enc.Encode(js); err != nil {
			return err
		}
	}
	return nil
}

// WriteChromeTrace writes the span tree in Chrome trace-event JSON
// (chrome://tracing, Perfetto). Each entity becomes a named thread;
// spans become complete ("X") duration events, instant events become
// thread-scoped instant ("i") events on their entity's thread, and every
// cross-entity parent/child edge becomes a flow-event pair ("s" on the
// parent's track at the child's begin, "f" on the child's track) so the
// causal chain — host call -> proxy -> HCA -> wire — is drawn as arrows
// across tracks.
// Timestamps are microseconds (floats), the format's native unit.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	return c.WriteChromeTraceWith(w, nil)
}

// WriteChromeTraceWith is WriteChromeTrace with extra pre-rendered trace
// events appended to the array — the merge point for the telemetry
// recorder's counter ("C") events, so spans and time series land in one
// trace file. Each extra must be one complete JSON object without trailing
// separators. A nil collector still emits the extras.
func (c *Collector) WriteChromeTraceWith(w io.Writer, extra []string) error {
	if c == nil && len(extra) == 0 {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	// Stable thread numbering: entities in order of first appearance,
	// which is deterministic because span creation order is.
	tid := make(map[string]int)
	var entities []string
	if c != nil {
		for i := range c.spans {
			e := c.spans[i].Entity
			if _, ok := tid[e]; !ok {
				tid[e] = len(entities)
				entities = append(entities, e)
			}
		}
	}
	us := func(t sim.Time) float64 { return float64(t) / 1e3 }
	var b strings.Builder
	b.WriteString("[\n")
	first := true
	emit := func(line string) {
		if !first {
			b.WriteString(",\n")
		}
		first = false
		b.WriteString(line)
	}
	for i, e := range entities {
		name, _ := json.Marshal(e)
		emit(fmt.Sprintf(`{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":%s}}`, i, name))
	}
	var spans []Span
	if c != nil {
		spans = c.spans
	}
	for i := range spans {
		s := &spans[i]
		name, _ := json.Marshal(s.Name)
		if s.Instant {
			emit(fmt.Sprintf(`{"ph":"i","s":"t","pid":0,"tid":%d,"ts":%g,"name":%s,"cat":"event","args":%s}`,
				tid[s.Entity], us(s.Begin), name, chromeArgs(s)))
			continue
		}
		end := s.End
		if !s.Ended {
			end = s.Begin
		}
		emit(fmt.Sprintf(`{"ph":"X","pid":0,"tid":%d,"ts":%g,"dur":%g,"name":%s,"cat":%q,"args":%s}`,
			tid[s.Entity], us(s.Begin), us(end-s.Begin), name, s.Layer, chromeArgs(s)))
		if s.Parent != 0 {
			if p, ok := c.Get(s.Parent); ok && p.Entity != s.Entity {
				// Flow arrow from the parent's track to the child's at the
				// moment the child begins.
				emit(fmt.Sprintf(`{"ph":"s","pid":0,"tid":%d,"ts":%g,"id":%d,"name":"flow","cat":"flow"}`,
					tid[p.Entity], us(s.Begin), s.ID))
				emit(fmt.Sprintf(`{"ph":"f","bp":"e","pid":0,"tid":%d,"ts":%g,"id":%d,"name":"flow","cat":"flow"}`,
					tid[s.Entity], us(s.Begin), s.ID))
			}
		}
	}
	for _, line := range extra {
		emit(line)
	}
	b.WriteString("\n]\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// chromeArgs renders a span's Chrome "args" object: its ID and class, then
// its attributes in recording order.
func chromeArgs(s *Span) string {
	args := fmt.Sprintf(`{"id":%d,"class":%q`, s.ID, s.Class.String())
	for _, a := range s.Attrs {
		k, _ := json.Marshal(a.Key)
		if a.IsInt {
			args += fmt.Sprintf(",%s:%d", k, a.Int)
		} else {
			v, _ := json.Marshal(a.Str)
			args += fmt.Sprintf(",%s:%s", k, v)
		}
	}
	return args + "}"
}

// WriteTimeline renders the instant events as an aligned chronological
// listing (stable for equal times, in recording order):
//
//	12.50us  rank0   Send_Offload  dst=1 size=65536 tag=4
//	13.20us  proxy0  rts
//
// It returns the first write error encountered (writes stop there), so
// callers streaming to files or pipes see short writes instead of silently
// truncated timelines. A nil collector writes nothing.
func (c *Collector) WriteTimeline(w io.Writer) error {
	var events []*Span
	entW, actW := 6, 6
	for i := range c.Spans() {
		s := &c.spans[i]
		if !s.Instant {
			continue
		}
		events = append(events, s)
		entW = max(entW, len(s.Entity))
		actW = max(actW, len(s.Name))
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Begin < events[j].Begin })
	for _, s := range events {
		var detail string
		if len(s.Attrs) > 0 {
			detail = s.Attrs[0].Str
		}
		if _, err := fmt.Fprintf(w, "%12s  %-*s  %-*s  %s\n", s.Begin, entW, s.Entity, actW, s.Name, detail); err != nil {
			return err
		}
	}
	return nil
}

// WriteFolded writes pprof-style folded stacks ("frame;frame;frame value"
// per line) for flamegraph tooling. Each ended span contributes its
// self-time (duration minus ended-children durations, floored at zero)
// under the stack of its ancestors; frames render as layer.name(entity).
// Lines are sorted lexically, so output is deterministic.
func (c *Collector) WriteFolded(w io.Writer) error {
	if c == nil {
		return nil
	}
	frame := func(s *Span) string {
		return fmt.Sprintf("%s.%s(%s)", s.Layer, s.Name, s.Entity)
	}
	childSum := make(map[ID]sim.Time)
	for i := range c.spans {
		s := &c.spans[i]
		if s.Ended && s.Parent != 0 {
			childSum[s.Parent] += s.Dur()
		}
	}
	stacks := make(map[string]sim.Time)
	for i := range c.spans {
		s := &c.spans[i]
		if !s.Ended {
			continue
		}
		self := s.Dur() - childSum[s.ID]
		if self <= 0 {
			continue
		}
		frames := []string{frame(s)}
		for p := s.Parent; p != 0; {
			ps, ok := c.Get(p)
			if !ok {
				break
			}
			frames = append(frames, frame(&ps))
			p = ps.Parent
		}
		// frames is leaf-first; folded format wants root-first.
		var b strings.Builder
		for j := len(frames) - 1; j >= 0; j-- {
			if j < len(frames)-1 {
				b.WriteByte(';')
			}
			b.WriteString(frames[j])
		}
		stacks[b.String()] += self
	}
	lines := make([]string, 0, len(stacks))
	for st, v := range stacks {
		lines = append(lines, fmt.Sprintf("%s %d", st, int64(v)))
	}
	sort.Strings(lines)
	for _, ln := range lines {
		if _, err := fmt.Fprintln(w, ln); err != nil {
			return err
		}
	}
	return nil
}
