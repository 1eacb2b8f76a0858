package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
)

// cpuModules are the layers the traced run reports self CPU for, plus the
// buckets for samples with no repository frame (rt_gc, rt_sched) and for
// everything else (other: the benchmark's own code, the standard library
// outside any module, and repository modules no workload leans on).
var cpuModules = []string{
	"sim", "core", "datapath", "verbs", "fabric", "gvmi", "regcache",
	"mpi", "coll", "policy", "tenant", "metrics", "telemetry",
	"cluster", "mem", "bench", "rt_gc", "rt_sched", "other",
}

const repoPrefix = "repro/internal/"

// profileHz is the CPU profile's sampling rate. At the default 100 Hz the
// layers that cost well under a percent of a step (policy, metrics) get
// no samples at all in a ten-second phase.
const profileHz = 1000

// cpuProfile is a CPU profile of one measured phase.
type cpuProfile struct {
	buf bytes.Buffer
	on  bool
}

// start begins profiling at profileHz. The runtime warns on standard error
// that the rate was set before the profile began, and the profile's header
// still claims 100 Hz; the kernel may also deliver fewer samples than
// asked. So the samples only give each module's share, and the process's
// CPU time over the phase gives the total.
func (c *cpuProfile) start() {
	runtime.SetCPUProfileRate(profileHz)
	c.on = pprof.StartCPUProfile(&c.buf) == nil
}

// stop ends the profile and returns it.
func (c *cpuProfile) stop() []byte {
	if !c.on {
		return nil
	}
	pprof.StopCPUProfile()
	return c.buf.Bytes()
}

// processCPU is the user plus system CPU time of the process so far.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// cpuByModule attributes a CPU profile's samples to modules: each sample
// goes to the innermost repro/internal/<module> frame on its stack (so a
// map walk or an allocation counts against the layer that made it). A stack
// without a repository frame is garbage collection if any frame is the
// collector's, scheduler if every frame is the runtime's, and other
// otherwise. Each module gets its share of the samples times cpuNS.
func cpuByModule(prof []byte, cpuNS int64) (map[string]float64, error) {
	out := map[string]float64{}
	if len(prof) == 0 {
		return out, nil
	}
	p, err := parseProfile(prof)
	if err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, m := range cpuModules {
		known[m] = true
	}
	var total int64
	for _, s := range p.samples {
		mod := classify(p.stack(s.locs))
		if !known[mod] {
			mod = "other"
		}
		out[mod] += float64(s.count)
		total += s.count
	}
	for mod := range out {
		out[mod] *= float64(cpuNS) / float64(total)
	}
	return out, nil
}

// classify names the module a stack (innermost frame first) is charged to.
// The benchmark's own code (package main) is other, even when a repository
// module such as the sweep runner called it.
func classify(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return "other"
		}
		if rest, ok := strings.CutPrefix(f, repoPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				return rest[:i]
			}
			return rest
		}
	}
	runtimeOnly := true
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "runtime.gc"), strings.HasPrefix(f, "runtime.markroot"),
			strings.HasPrefix(f, "runtime.scanobject"), strings.HasPrefix(f, "runtime.bgsweep"),
			strings.HasPrefix(f, "runtime.bgscavenge"), strings.HasPrefix(f, "runtime.sweepone"):
			return "rt_gc"
		case !strings.HasPrefix(f, "runtime."):
			runtimeOnly = false
		}
	}
	if runtimeOnly {
		return "rt_sched"
	}
	return "other"
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	samples []sample
	locs    map[uint64][]uint64 // location id → function ids, innermost first
	funcs   map[uint64]int64    // function id → name's string-table index
	strs    []string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64    // samples taken at this stack (the first sample value)
}

func (p *profile) stack(locs []uint64) []string {
	var names []string
	for _, l := range locs {
		for _, f := range p.locs[l] {
			if i := p.funcs[f]; i >= 0 && int(i) < len(p.strs) {
				names = append(names, p.strs[i])
			}
		}
	}
	return names
}

// Field numbers of profile.proto (github.com/google/pprof).
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profString   = 6

	sampleLocation = 1
	sampleValue    = 2

	locID   = 1
	locLine = 4

	lineFunction = 1

	funcID   = 1
	funcName = 2
)

// parseProfile decodes a gzipped pprof protobuf.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profSample:
			var s sample
			var vals []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case sampleLocation:
					return varints(v, b, &s.locs)
				case sampleValue:
					return varints(v, b, &vals)
				}
				return nil
			})
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case locID:
					id = v
				case locLine:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case profFunction:
			var id uint64
			name := int64(-1)
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case funcID:
					id = v
				case funcName:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case profString:
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

var errProto = errors.New("malformed protobuf")

// fields walks a protobuf message, calling f with each field's number and
// its varint value (varint fields) or bytes (length-delimited fields).
func fields(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := f(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated integer field, packed (b set) or not.
func varints(v uint64, b []byte, dst *[]uint64) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
