// Package core implements the paper's contribution: a framework that
// offloads arbitrary communication patterns from host processes to
// BlueField DPU worker ("proxy") processes.
//
// It provides the two API families of Section VI:
//
//   - Basic primitives — Send_Offload / Recv_Offload / Wait — nonblocking
//     point-to-point transfers performed by a proxy on the DPU
//     (Host.SendOffload, Host.RecvOffload, Host.Wait);
//   - Group primitives — Group_Offload_start/end/call, Send/Recv_Goffload,
//     Local_barrier_Goffload, Group_Wait — which record an entire
//     communication pattern, including ordering dependencies, and hand the
//     whole graph to the DPU in one shot (Host.GroupStart, GroupRequest).
//
// Two data-movement mechanisms implement the primitives (Section VII):
//
//   - MechGVMI: the proxy cross-registers host buffers through cross-GVMI
//     and RDMA-writes directly from source host memory to destination host
//     memory — no staging;
//   - MechStaging: the state-of-the-art baseline path (BluesMPI-style):
//     data is first moved into DPU memory, then re-injected toward the
//     destination — one extra hop (Figure 6).
//
// The registration caches of Section VII-B and the group-request caches of
// Section VII-D are individually switchable for ablation studies.
package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/datapath"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/gvmi"
	"repro/internal/regcache"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// Mechanism selects how proxies move host data.
type Mechanism int

const (
	// MechGVMI uses cross-GVMI: direct host-to-host RDMA posted by the DPU.
	MechGVMI Mechanism = iota
	// MechStaging bounces data through DPU memory (baseline mechanism).
	MechStaging
)

// String implements fmt.Stringer. It is exhaustive: out-of-range values
// (a misconfigured policy table, a corrupted config) report as unknown(n)
// instead of silently claiming to be gvmi.
func (m Mechanism) String() string {
	switch m {
	case MechGVMI:
		return "gvmi"
	case MechStaging:
		return "staging"
	default:
		return fmt.Sprintf("unknown(%d)", int(m))
	}
}

// Config tunes the framework.
type Config struct {
	Mechanism Mechanism
	// RegCaches enables the GVMI / cross-registration / IB registration
	// caches (Section VII-B). Off = register on every transfer.
	RegCaches bool
	// GroupCache enables the group-request caches on host and DPU
	// (Section VII-D): a replayed group request sends only its ID.
	GroupCache bool
	// CtrlSize is the wire size of a bare control message (RTS/RTR/FIN).
	CtrlSize int
	// GroupOpWireSize is the per-entry wire size of a Group_Offload_packet.
	GroupOpWireSize int
	// ProxyHandleCost is the DPU CPU cost of parsing one control message.
	ProxyHandleCost sim.Time
	// WarmupPerOp is a per-entry setup penalty the proxy pays during the
	// first WarmupCalls executions of each group request; it models the
	// first-several-iterations degradation the paper observed in BluesMPI
	// at the application level (Section VIII-D, Figure 16). Zero for the
	// proposed design.
	WarmupPerOp sim.Time
	// WarmupCalls is how many calls of each request pay WarmupPerOp.
	WarmupCalls int
}

// DefaultConfig returns the proposed design: GVMI mechanism, all caches on.
func DefaultConfig() Config {
	return Config{
		Mechanism:       MechGVMI,
		RegCaches:       true,
		GroupCache:      true,
		CtrlSize:        48,
		GroupOpWireSize: 64,
		ProxyHandleCost: 120 * sim.Nanosecond,
	}
}

// Framework ties hosts and proxies together. Create it with New, then call
// Start before launching host processes.
type Framework struct {
	cl      *cluster.Cluster
	cfg     Config
	hosts   []*Host
	proxies []*Proxy
	stopped bool
	tenancy *Tenancy // nil = single-job framework (see tenancy.go)
}

// New builds the framework for the given host attachment sites (one per
// rank; typically mpi.Rank sites so that application buffers are shared).
func New(cl *cluster.Cluster, cfg Config, sites []*cluster.Site) *Framework {
	if len(sites) != cl.Cfg.NP() {
		panic(fmt.Sprintf("core: %d sites for %d ranks", len(sites), cl.Cfg.NP()))
	}
	fw := &Framework{cl: cl, cfg: cfg}
	nProxies := cl.Cfg.Nodes * cl.Cfg.ProxiesPerDPU
	for i := 0; i < nProxies; i++ {
		node := i / cl.Cfg.ProxiesPerDPU
		local := i % cl.Cfg.ProxiesPerDPU
		site := cl.NewDPUSite(node, fmt.Sprintf("proxy%d.%d", node, local))
		fw.proxies = append(fw.proxies, newProxy(fw, i, node, local, site))
	}
	np := cl.Cfg.NP()
	for r := 0; r < np; r++ {
		h := &Host{
			fw:   fw,
			rank: r,
			site: sites[r],
			ctx:  sites[r].NewCtx(fmt.Sprintf("offload%d", r)),
			reqs: make(map[int64]*OffloadRequest),
		}
		h.gvmiCache = regcache.New[gvmi.MKeyInfo](nProxies, 0, nil)
		h.ibCache = regcache.New[*verbs.MR](1, 0, func(mr *verbs.MR) { mr.Deregister() })
		h.gvmiCache.Instrument(cl.Met, fmt.Sprintf("gvmi.rank%d", r))
		h.ibCache.Instrument(cl.Met, fmt.Sprintf("ib.rank%d", r))
		if fw.crashesConfigured() {
			// Crash tolerance: delivery counters move into host memory
			// (dlvCtx receives the RDMA counter writes) and the host tracks
			// enough request state to re-execute lost work itself.
			h.dlvCtx = sites[r].NewCtx(fmt.Sprintf("dlvctr%d", r))
			h.dlvSeen = make(map[dlvID]bool)
			h.dlvCnt = make(dlvCounters)
			h.pendingSends = make(map[int64]*sendRec)
			h.osPending = make(map[int64]*osRec)
			h.mHeartbeatLosses = cl.Met.Counter("core", fmt.Sprintf("rank%d", r), "heartbeat_losses")
			h.mFailovers = cl.Met.Counter("core", fmt.Sprintf("rank%d", r), "failovers")
		}
		fw.hosts = append(fw.hosts, h)
	}
	return fw
}

// crashesConfigured reports whether the fault plan schedules any proxy
// crash. Only then does the framework pay for crash tolerance (host-side
// delivery counters, request records); without crashes every code path is
// identical to a fault-free build.
func (fw *Framework) crashesConfigured() bool {
	f := fw.cl.Cfg.Fault
	return f != nil && len(f.Crashes) > 0
}

// hbTimeout returns the heartbeat timeout after which a silent proxy is
// declared dead.
func (fw *Framework) hbTimeout() sim.Time {
	if f := fw.cl.Cfg.Fault; f != nil && f.HeartbeatTimeout > 0 {
		return f.HeartbeatTimeout
	}
	return fault.DefaultConfig(0).HeartbeatTimeout
}

// DefaultPath maps the construction-time mechanism onto a datapath kind —
// the path every operation takes unless the caller picks one per call
// (SendOffloadVia / GroupStartVia, normally driven by a policy engine).
func (fw *Framework) DefaultPath() datapath.Kind {
	if fw.cfg.Mechanism == MechStaging {
		return datapath.KindStaged
	}
	return datapath.KindCrossGVMI
}

// Cluster returns the underlying cluster.
func (fw *Framework) Cluster() *cluster.Cluster { return fw.cl }

// ProfileOfRank returns the device profile of the node hosting rank.
func (fw *Framework) ProfileOfRank(rank int) device.Profile {
	return fw.cl.ProfileOf(fw.cl.NodeOfRank(rank))
}

// CapsOfRank returns the datapath capability set of the node hosting rank.
// Every rank that knows the sender's node can compute this, which is what
// keeps capability fallbacks consistent across a pair or a group.
func (fw *Framework) CapsOfRank(rank int) datapath.Caps {
	p := fw.ProfileOfRank(rank)
	return datapath.Caps{CrossGVMI: p.CrossGVMI, DSA: p.HasDSA}
}

// Config returns the framework configuration.
func (fw *Framework) Config() Config { return fw.cfg }

// Host returns the handle for a host rank. The handle must be bound to its
// simulated process (Bind) before use.
func (fw *Framework) Host(rank int) *Host { return fw.hosts[rank] }

// Proxy returns proxy i (for inspection in tests).
func (fw *Framework) Proxy(i int) *Proxy { return fw.proxies[i] }

// NumProxies returns the total proxy count.
func (fw *Framework) NumProxies() int { return len(fw.proxies) }

// proxyFor returns the proxy serving a host rank:
// proxy_local_rank = host_source_rank % num_proxies_per_dpu, on the rank's
// own node (Section VII-A).
func (fw *Framework) proxyFor(rank int) *Proxy {
	node := fw.cl.NodeOfRank(rank)
	return fw.proxies[node*fw.cl.Cfg.ProxiesPerDPU+fw.cl.ProxyOfRank(rank)]
}

// Stop asks all proxy worker processes to exit (Finalize_Offload). Call it
// after the application processes have finished, then run the kernel once
// more so the proxies unwind — this releases the goroutines (and therefore
// the whole simulated cluster) for garbage collection.
func (fw *Framework) Stop() {
	fw.stopped = true
	for _, px := range fw.proxies {
		px.ctx.InboxCond.Broadcast()
	}
	if fw.crashesConfigured() {
		for _, h := range fw.hosts {
			h.dlvCtx.InboxCond.Broadcast()
		}
	}
}

// Start spawns the proxy worker processes and performs the Init_Offload
// setup: every proxy generates its GVMI-ID, which is exchanged with all
// processes in the global communicator (modelled as part of initialization,
// before timing starts).
func (fw *Framework) Start() {
	for _, px := range fw.proxies {
		px := px
		px.gvmiID = fw.cl.GVMI.GenerateID(px.ctx)
		proc := fw.cl.K.Spawn(fmt.Sprintf("proxy%d", px.global), func(p *sim.Proc) {
			p.SetDaemon(true)
			px.run(p)
		})
		// Placement hint for sharded kernels: the proxy's events stay on
		// its node's shard (a no-op on serial kernels).
		proc.SetShard(fw.cl.K.ShardIndex(px.node))
	}
	if !fw.crashesConfigured() {
		return
	}
	// Schedule the fault plan's proxy crashes/restarts at their virtual
	// times (Start runs at t=0, before the kernel).
	for _, cr := range fw.cl.Cfg.Fault.Crashes {
		cr := cr
		if cr.Proxy < 0 || cr.Proxy >= len(fw.proxies) {
			panic(fmt.Sprintf("core: crash plan references proxy %d of %d", cr.Proxy, len(fw.proxies)))
		}
		px := fw.proxies[cr.Proxy]
		fw.cl.K.At(cr.At, func() { px.crash() })
		if cr.RestartAfter > 0 {
			fw.cl.K.At(cr.At+cr.RestartAfter, func() { px.restart() })
		}
	}
	// One counter daemon per host: it models the destination HCA updating
	// the pre-registered delivery counters in host memory — zero CPU cost,
	// it only accounts arrivals and wakes the readers (the host's own wait
	// loops and its proxy's progress engine).
	for _, h := range fw.hosts {
		h := h
		proc := fw.cl.K.Spawn(fmt.Sprintf("dlvctr%d", h.rank), func(p *sim.Proc) {
			p.SetDaemon(true)
			for !fw.stopped {
				for _, pkt := range h.dlvCtx.PollInbox() {
					h.noteDelivery(p.Now(), pkt.Payload.(*dlvMsg))
				}
				if h.dlvCtx.InboxLen() == 0 && !fw.stopped {
					h.dlvCtx.InboxCond.Wait(p)
				}
			}
		})
		proc.SetShard(fw.cl.K.ShardIndex(fw.cl.NodeOfRank(h.rank)))
	}
}
