// Package datapath defines the pluggable data-movement paths of the
// offload framework. The paper fixes the execution path at job launch
// (Section VII's mechanism enum); here each path is a first-class value
// behind one interface so a policy engine (package policy) can choose a
// path per operation instead of per job:
//
//   - CrossGVMI: the paper's proposed path — the proxy cross-registers the
//     source host buffer through cross-GVMI and RDMA-writes it straight
//     into the destination host's memory (Figure 6, no staging);
//   - Staged: the BluesMPI-style state-of-the-art path — RDMA-read into
//     DPU staging memory, then RDMA-write toward the destination (one
//     extra hop);
//   - HostDirect: no proxy at all — the transfer runs on the host MPI
//     library's eager/rendezvous path (the "IntelMPI" baseline). It has no
//     proxy-side execution; callers route it through a HostPoster.
//
// Proxy-executed paths (CrossGVMI, Staged) are driven through Execute,
// which byte-for-byte reproduces the RDMA post sequences, statistics, and
// completion ordering of the pre-refactor mechanism branches — fixed
// policies therefore reproduce the old presets bit-exactly.
package datapath

import (
	"fmt"

	"repro/internal/gvmi"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/verbs"
)

// Kind identifies a datapath on the wire and in policy tables.
type Kind int

// The datapaths.
const (
	// KindCrossGVMI is the proposed direct host-to-host path.
	KindCrossGVMI Kind = iota
	// KindStaged bounces through DPU DRAM (baseline path).
	KindStaged
	// KindHostDirect is the host MPI path; no proxy involvement.
	KindHostDirect
	// KindDSA is the engine-driven path of DSA-equipped off-path parts:
	// the proxy hands the descriptor to the hardware DMA engine, which
	// posts the host-to-host write itself — skipping the ARM cores'
	// injection overhead entirely.
	KindDSA

	numKinds
)

// String implements fmt.Stringer. The names match the -policy CLI values
// and the "mech" span attribute recorded on proxy transfer spans.
func (k Kind) String() string {
	switch k {
	case KindCrossGVMI:
		return "gvmi"
	case KindStaged:
		return "staged"
	case KindHostDirect:
		return "hostdirect"
	case KindDSA:
		return "dsa"
	default:
		return fmt.Sprintf("unknown(%d)", int(k))
	}
}

// Valid reports whether k names one of the datapaths.
func (k Kind) Valid() bool { return k >= 0 && k < numKinds }

// Kinds lists every datapath kind (for tests and ablation sweeps).
func Kinds() []Kind { return []Kind{KindCrossGVMI, KindStaged, KindHostDirect, KindDSA} }

// Caps is the device-capability subset the datapath layer consults
// (derived from a node's device.Profile by the core framework).
type Caps struct {
	// CrossGVMI: the part supports cross-function registration, so the
	// proposed zero-copy path exists.
	CrossGVMI bool
	// DSA: the part has a hardware DMA engine with its own injection
	// port.
	DSA bool
}

// FullCaps is the capability set of the pre-substrate simulator: every
// classic path available, no engine.
func FullCaps() Caps { return Caps{CrossGVMI: true} }

// Resolve maps a requested datapath to the one a node with capabilities c
// can actually run. Cross-GVMI requests on parts without cross-function
// registration ride the DSA engine when present and the staged path
// otherwise; DSA requests on engineless parts fall back the same way in
// reverse. The resolution is deterministic and identical on every rank
// that knows the sender's capabilities, so senders and receivers agree.
// On full-caps profiles it is the identity — the pre-substrate behaviour.
func Resolve(k Kind, c Caps) Kind {
	switch k {
	case KindCrossGVMI:
		if !c.CrossGVMI {
			if c.DSA {
				return KindDSA
			}
			return KindStaged
		}
	case KindDSA:
		if !c.DSA {
			if c.CrossGVMI {
				return KindCrossGVMI
			}
			return KindStaged
		}
	}
	return k
}

// SrcReg says what a sending host must register before handing the
// transfer to its proxy.
type SrcReg int

// Source-registration requirements.
const (
	// RegGVMI: register the source buffer against the proxy's GVMI so the
	// proxy can cross-register it (CrossGVMI path).
	RegGVMI SrcReg = iota
	// RegIB: plain IB registration; the proxy RDMA-reads the source
	// (Staged path).
	RegIB
	// RegNone: nothing — the transfer never reaches a proxy (HostDirect).
	RegNone
)

// Stage is a registered DPU staging buffer leased from the executor's
// pool (Staged path only).
type Stage interface {
	LKey() verbs.Key
	Addr() mem.Addr
}

// Exec is the proxy-side execution surface a Datapath posts through. It is
// implemented by core.Proxy; keeping it an interface here breaks the
// import cycle and lets datapath implementations be tested against fakes.
type Exec interface {
	// PostWrite / PostRead post RDMA from the proxy's context.
	PostWrite(op verbs.WriteOp) error
	PostRead(op verbs.ReadOp) error
	// CrossReg cross-registers a host mkey (through the proxy's cache when
	// enabled), recording the work under parent.
	CrossReg(srcHost int, info gvmi.MKeyInfo, parent span.ID) *verbs.MR
	// AcquireStage / ReleaseStage lease DPU staging buffers.
	AcquireStage(size int, parent span.ID) Stage
	ReleaseStage(Stage)
	// Later defers fn to the executor's next progress round (completion
	// handlers run in kernel handler context).
	Later(fn func())
	// Spans returns the span collector (nil-safe when tracing is off).
	Spans() *span.Collector
	// PostEngineWrite posts an RDMA write through the node's DSA engine
	// port instead of the ARM-driven proxy context (KindDSA only; panics
	// on nodes whose profile has no engine — Resolve prevents that).
	PostEngineWrite(op verbs.WriteOp) error
	// Stat counters (mirrors the proxy's RDMAWrites/RDMAReads/StagedOps).
	CountWrite()
	CountRead()
	CountStaged()
	CountEngine()
}

// Transfer describes one source-to-destination movement a proxy executes.
type Transfer struct {
	SrcHost int // source host rank (cross-reg cache key)
	Size    int

	// CrossGVMI source: the host-registered GVMI mkey, plus an optional
	// memoized cross-registration (group replays cache it per entry).
	MKey   gvmi.MKeyInfo
	Cached *verbs.MR

	// Source address, and — Staged path — the plain IB rkey the proxy
	// reads through.
	SrcAddr mem.Addr
	SrcRKey verbs.Key

	// Destination window.
	DstAddr mem.Addr
	DstRKey verbs.Key

	// Span is the causal parent of all work posted for this transfer.
	// EndSpan ends it at remote completion (basic primitives end their
	// transfer span; group sends leave the group-execution span open).
	Span    span.ID
	EndSpan bool
}

// Datapath is one data-movement path. Execute posts the RDMA sequence for
// one transfer and arranges for done to run — in the executor's deferred
// context — after the data has fully landed (and, for Staged, after the
// staging buffer is back in the pool). It returns the cross-registration
// it used (CrossGVMI only; nil otherwise) so callers may memoize it.
type Datapath interface {
	Kind() Kind
	SrcReg() SrcReg
	Execute(x Exec, t Transfer, done func()) *verbs.MR
}

// ForKind returns the shared implementation of a proxy-executable kind.
// HostDirect is returned too (for SrcReg queries), but its Execute panics:
// host-direct transfers are posted by the host, not a proxy.
func ForKind(k Kind) Datapath {
	switch k {
	case KindCrossGVMI:
		return CrossGVMI{}
	case KindStaged:
		return Staged{}
	case KindHostDirect:
		return HostDirect{}
	case KindDSA:
		return DSA{}
	default:
		panic(fmt.Sprintf("datapath: no implementation for %v", k))
	}
}

// ---------------------------------------------------------------------------
// CrossGVMI

// CrossGVMI is the proposed path: cross-register the source host buffer
// and RDMA-write it straight into the destination host's memory.
type CrossGVMI struct{}

// Kind implements Datapath.
func (CrossGVMI) Kind() Kind { return KindCrossGVMI }

// SrcReg implements Datapath.
func (CrossGVMI) SrcReg() SrcReg { return RegGVMI }

// Execute implements Datapath.
func (CrossGVMI) Execute(x Exec, t Transfer, done func()) *verbs.MR {
	mr := t.Cached
	if mr == nil {
		mr = x.CrossReg(t.SrcHost, t.MKey, t.Span)
	}
	x.CountWrite()
	err := x.PostWrite(verbs.WriteOp{
		LocalKey: mr.LKey(), LocalAddr: t.SrcAddr,
		RemoteKey: t.DstRKey, RemoteAddr: t.DstAddr,
		Size:             t.Size,
		Span:             t.Span,
		OnRemoteComplete: remoteComplete(x, t.Span, t.EndSpan, done),
	})
	if err != nil {
		panic(fmt.Sprintf("datapath: gvmi write: %v", err))
	}
	return mr
}

// remoteComplete is the remote-completion handler of a single-write path:
// end the transfer span if asked, then defer done to the executor. It
// captures only what it needs, not the whole Transfer.
func remoteComplete(x Exec, s span.ID, endSpan bool, done func()) func(sim.Time) {
	return func(at sim.Time) {
		if endSpan {
			x.Spans().EndAt(s, at)
		}
		x.Later(done)
	}
}

// ---------------------------------------------------------------------------
// Staged

// Staged is the baseline path: RDMA-read the source into DPU staging
// memory, then RDMA-write from the staging buffer to the destination —
// the extra hop the cross-GVMI design removes.
type Staged struct{}

// Kind implements Datapath.
func (Staged) Kind() Kind { return KindStaged }

// SrcReg implements Datapath.
func (Staged) SrcReg() SrcReg { return RegIB }

// Execute implements Datapath.
func (Staged) Execute(x Exec, t Transfer, done func()) *verbs.MR {
	sb := x.AcquireStage(t.Size, t.Span)
	x.CountStaged()
	x.CountRead()
	err := x.PostRead(verbs.ReadOp{
		LocalKey: sb.LKey(), LocalAddr: sb.Addr(),
		RemoteKey: t.SrcRKey, RemoteAddr: t.SrcAddr,
		Size: t.Size,
		Span: t.Span,
		OnComplete: func(sim.Time) {
			x.Later(func() {
				x.CountWrite()
				err := x.PostWrite(verbs.WriteOp{
					LocalKey: sb.LKey(), LocalAddr: sb.Addr(),
					RemoteKey: t.DstRKey, RemoteAddr: t.DstAddr,
					Size: t.Size,
					Span: t.Span,
					OnRemoteComplete: func(at sim.Time) {
						if t.EndSpan {
							x.Spans().EndAt(t.Span, at)
						}
						x.Later(func() {
							x.ReleaseStage(sb)
							done()
						})
					},
				})
				if err != nil {
					panic(fmt.Sprintf("datapath: staged write: %v", err))
				}
			})
		},
	})
	if err != nil {
		panic(fmt.Sprintf("datapath: staged read: %v", err))
	}
	return nil
}

// ---------------------------------------------------------------------------
// DSA

// DSA is the engine-driven path of DSA-equipped off-path SmartNICs: the
// proxy still matches the rendezvous (its handler cost is unavoidable —
// the control plane stays in software) but the data movement is posted by
// the hardware DMA engine through its own port, whose per-descriptor
// overhead undercuts even the host port. The engine has host-memory
// access through the source's plain IB registration, so no
// cross-function registration is needed — one write, zero staging.
type DSA struct{}

// Kind implements Datapath.
func (DSA) Kind() Kind { return KindDSA }

// SrcReg implements Datapath: plain IB registration, like Staged — the
// engine addresses host memory through the source rkey.
func (DSA) SrcReg() SrcReg { return RegIB }

// Execute implements Datapath.
func (DSA) Execute(x Exec, t Transfer, done func()) *verbs.MR {
	x.CountEngine()
	x.CountWrite()
	err := x.PostEngineWrite(verbs.WriteOp{
		LocalKey: t.SrcRKey, LocalAddr: t.SrcAddr,
		RemoteKey: t.DstRKey, RemoteAddr: t.DstAddr,
		Size:             t.Size,
		Span:             t.Span,
		OnRemoteComplete: remoteComplete(x, t.Span, t.EndSpan, done),
	})
	if err != nil {
		panic(fmt.Sprintf("datapath: dsa write: %v", err))
	}
	return nil
}

// ---------------------------------------------------------------------------
// HostDirect

// Pending is a started host-direct transfer (an mpi.Request, behind an
// interface so this package does not import the MPI library).
type Pending interface {
	Done() bool
}

// HostPoster is the host-side posting surface of the HostDirect path —
// the MPI library's nonblocking point-to-point calls. mpi.Rank exposes it
// via Rank.Direct().
type HostPoster interface {
	Isend(addr mem.Addr, size, dst, tag int) Pending
	Irecv(addr mem.Addr, size, src, tag int) Pending
}

// HostDirect is the no-framework path: transfers are posted and progressed
// by the host MPI library (progress only inside MPI calls — the semantic
// mismatch the paper's Section II-A criticizes, and the reason this path
// loses overlap benchmarks even when its latency wins).
type HostDirect struct{}

// Kind implements Datapath.
func (HostDirect) Kind() Kind { return KindHostDirect }

// SrcReg implements Datapath.
func (HostDirect) SrcReg() SrcReg { return RegNone }

// Execute implements Datapath. HostDirect transfers never reach a proxy;
// route them through a HostPoster instead.
func (HostDirect) Execute(Exec, Transfer, func()) *verbs.MR {
	panic("datapath: HostDirect transfers are posted by the host, not a proxy")
}
