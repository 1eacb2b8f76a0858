package core

import (
	"repro/internal/datapath"
	"repro/internal/gvmi"
	"repro/internal/mem"
	"repro/internal/span"
	"repro/internal/verbs"
)

// Proxy implements datapath.Exec: it is the execution surface the
// pluggable datapaths post their RDMA sequences through. The methods are
// thin adapters over the proxy's existing machinery so a datapath's
// Execute reproduces the pre-refactor mechanism branches exactly.
var _ datapath.Exec = (*Proxy)(nil)

// PostWrite implements datapath.Exec.
func (px *Proxy) PostWrite(op verbs.WriteOp) error { return px.ctx.PostWrite(px.proc, op) }

// PostEngineWrite implements datapath.Exec: the write is posted through
// the node's DSA engine port (its own injection overhead and line rate)
// instead of the ARM-driven proxy context. The proxy core still pays the
// descriptor handoff (PostWR) — the control plane stays in software.
func (px *Proxy) PostEngineWrite(op verbs.WriteOp) error {
	if px.dsaCtx == nil {
		panic("core: KindDSA transfer on a node whose device profile has no DSA engine")
	}
	return px.dsaCtx.PostWrite(px.proc, op)
}

// PostRead implements datapath.Exec.
func (px *Proxy) PostRead(op verbs.ReadOp) error { return px.ctx.PostRead(px.proc, op) }

// CrossReg implements datapath.Exec.
func (px *Proxy) CrossReg(srcHost int, info gvmi.MKeyInfo, parent span.ID) *verbs.MR {
	return px.crossReg(srcHost, info, parent)
}

// AcquireStage implements datapath.Exec.
func (px *Proxy) AcquireStage(size int, parent span.ID) datapath.Stage {
	return px.getStage(size, parent)
}

// ReleaseStage implements datapath.Exec.
func (px *Proxy) ReleaseStage(s datapath.Stage) { px.putStage(s.(*stageBuf)) }

// Later implements datapath.Exec.
func (px *Proxy) Later(fn func()) { px.later(fn) }

// Spans implements datapath.Exec.
func (px *Proxy) Spans() *span.Collector { return px.spans() }

// CountWrite implements datapath.Exec.
func (px *Proxy) CountWrite() { px.RDMAWrites++ }

// CountRead implements datapath.Exec.
func (px *Proxy) CountRead() { px.RDMAReads++ }

// CountStaged implements datapath.Exec.
func (px *Proxy) CountStaged() { px.StagedOps++ }

// CountEngine implements datapath.Exec.
func (px *Proxy) CountEngine() { px.EngineOps++ }

// stageBuf implements datapath.Stage.
var _ datapath.Stage = (*stageBuf)(nil)

// LKey implements datapath.Stage.
func (sb *stageBuf) LKey() verbs.Key { return sb.mr.LKey() }

// Addr implements datapath.Stage.
func (sb *stageBuf) Addr() mem.Addr { return sb.buf.Addr() }
