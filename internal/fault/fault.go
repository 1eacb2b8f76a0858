// Package fault is the deterministic fault-injection subsystem of the
// simulated cluster. A fault plan (Config) is attached to cluster.Config;
// from it the cluster builds one seeded Injector that every layer consults:
//
//   - fabric: per-message drop / corruption / delay-spike fates
//     (Fabric.TransferFated);
//   - verbs: completion-queue entries with error status and failed memory
//     registrations, plus the retransmission machinery that tolerates both
//     verbs- and fabric-level faults (per-op retry with exponential
//     backoff, terminal error after RetryConfig.MaxAttempts);
//   - core: proxy-process crashes and restarts at scheduled virtual times
//     (Config.Crashes), detected by hosts through lost heartbeats and
//     tolerated by host-progressed fallback.
//
// Everything is deterministic: all randomness comes from one math/rand
// stream seeded with Config.Seed, drawn in discrete-event order, and no
// draw consumes virtual time. A nil *Injector (the default when
// cluster.Config.Fault is nil) disables every hook at zero cost — all
// methods are nil-safe, mirroring span.Collector and metrics.Registry.
package fault

import (
	"math/rand"

	"repro/internal/sim"
	"repro/internal/span"
)

// Fate is the injected outcome of one fabric message.
type Fate int

// Message fates.
const (
	// FateDeliver: the message arrives normally.
	FateDeliver Fate = iota
	// FateDrop: the message is lost after consuming the sender's injection
	// overhead and serialization; it never occupies the receiver.
	FateDrop
	// FateCorrupt: the message occupies both endpoints but fails the
	// receiver's ICRC check and is discarded without delivery.
	FateCorrupt
	// FateDelay: the message is delivered after an extra DelaySpike
	// (switch-buffering / congestion excursion).
	FateDelay
)

// String implements fmt.Stringer.
func (f Fate) String() string {
	switch f {
	case FateDrop:
		return "drop"
	case FateCorrupt:
		return "corrupt"
	case FateDelay:
		return "delay"
	}
	return "deliver"
}

// RetryConfig tunes the verbs-level retransmission machinery.
type RetryConfig struct {
	// MaxAttempts is the total number of tries (first post included) before
	// an operation completes with a terminal error.
	MaxAttempts int
	// Backoff is the delay before the first retransmission; each further
	// attempt doubles it (exponential backoff).
	Backoff sim.Time
	// BackoffMax caps the exponential growth.
	BackoffMax sim.Time
}

// DefaultRetry mirrors an IB transport-timer configuration: 8 attempts,
// 2us initial timeout, capped at 64us.
func DefaultRetry() RetryConfig {
	return RetryConfig{
		MaxAttempts: 8,
		Backoff:     2 * sim.Microsecond,
		BackoffMax:  64 * sim.Microsecond,
	}
}

// Delay returns the backoff before retransmitting after `attempt` failed
// tries (attempt >= 1).
func (rc RetryConfig) Delay(attempt int) sim.Time {
	d := rc.Backoff
	if d <= 0 {
		d = sim.Microsecond
	}
	for i := 1; i < attempt; i++ {
		d *= 2
		if rc.BackoffMax > 0 && d >= rc.BackoffMax {
			return rc.BackoffMax
		}
	}
	if rc.BackoffMax > 0 && d > rc.BackoffMax {
		d = rc.BackoffMax
	}
	return d
}

// Crash schedules one proxy-process failure.
type Crash struct {
	Proxy int      // global proxy index (core.Framework numbering)
	At    sim.Time // virtual time of the crash
	// RestartAfter, when positive, restarts the proxy (with empty state)
	// this long after the crash. Zero = the proxy stays down.
	RestartAfter sim.Time
}

// Config is a fault plan. The zero value injects nothing but still
// exercises every hook (useful for zero-overhead verification); nil
// disables the subsystem entirely.
type Config struct {
	// Seed initializes the single deterministic random stream.
	Seed int64

	// Per-message fabric fault probabilities (independent; at most one fate
	// is applied per message, drop taking precedence over corruption over
	// delay).
	DropRate    float64
	CorruptRate float64
	DelayRate   float64
	// DelaySpike is the extra latency of a FateDelay message.
	DelaySpike sim.Time

	// CQErrorRate is the probability that a posted work request completes
	// with an error CQE before reaching the wire (local protection / WQE
	// faults); the NIC-level retry machinery re-posts it.
	CQErrorRate float64
	// RegFailRate is the probability that an ibv_reg_mr call fails and must
	// be retried (pinning pressure); each failed try still pays the full
	// registration cost.
	RegFailRate float64

	// Crashes schedules proxy-process failures at virtual times.
	Crashes []Crash
	// HeartbeatPeriod is how often a live proxy refreshes its liveness
	// counter in host memory (modelled as a zero-wire-cost 8-byte RDMA
	// write, the same mechanism as the completion counters).
	HeartbeatPeriod sim.Time
	// HeartbeatTimeout is how long a host waits without a heartbeat before
	// declaring its proxy dead and failing over.
	HeartbeatTimeout sim.Time

	// Retry tunes the verbs retransmission machinery; zero fields fall back
	// to DefaultRetry.
	Retry RetryConfig
}

// DefaultConfig returns a plan with every rate at zero and sane recovery
// parameters — attach it and raise individual rates for chaos runs.
func DefaultConfig(seed int64) *Config {
	return &Config{
		Seed:             seed,
		DelaySpike:       20 * sim.Microsecond,
		HeartbeatPeriod:  5 * sim.Microsecond,
		HeartbeatTimeout: 20 * sim.Microsecond,
		Retry:            DefaultRetry(),
	}
}

// Scaled returns the canonical chaos-sweep plan for an aggregate fault rate
// r: half the budget goes to drops, a quarter to corruption, a quarter to
// delay spikes, and r/4 to error CQEs (offloadbench chaos uses this
// mapping for its degradation tables).
func Scaled(seed int64, r float64) *Config {
	c := DefaultConfig(seed)
	c.DropRate = r / 2
	c.CorruptRate = r / 4
	c.DelayRate = r / 4
	c.CQErrorRate = r / 4
	return c
}

// RetryOrDefault returns the plan's retry configuration with defaults
// applied to zero fields.
func (c *Config) RetryOrDefault() RetryConfig {
	rc := c.Retry
	def := DefaultRetry()
	if rc.MaxAttempts <= 0 {
		rc.MaxAttempts = def.MaxAttempts
	}
	if rc.Backoff <= 0 {
		rc.Backoff = def.Backoff
	}
	if rc.BackoffMax <= 0 {
		rc.BackoffMax = def.BackoffMax
	}
	return rc
}

// Stats counts injected faults and recovery actions.
type Stats struct {
	Drops    int64 // messages lost on the wire
	Corrupts int64 // messages discarded by the receiver's ICRC check
	Delays   int64 // messages hit by a delay spike
	CQErrors int64 // work requests completed with an error CQE
	RegFails int64 // failed registration attempts

	Retries   int64 // retransmissions scheduled by the verbs layer
	Exhausted int64 // operations that ran out of retry attempts
	Crashes   int64 // proxy processes killed
	Restarts  int64 // proxy processes restarted
}

// Injector is the runtime side of a fault plan. All methods are nil-safe;
// a nil injector never injects and never draws randomness.
type Injector struct {
	cfg *Config
	rng *rand.Rand

	// Stats accumulates injected-fault counters (single-threaded DES: plain
	// fields are race-free).
	Stats Stats

	// Spans, when set, records every fault and recovery as an instant
	// event (cluster.New attaches cluster.Config.Spans).
	Spans *span.Collector
}

// NewInjector builds the injector for one plan.
func NewInjector(cfg *Config) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Enabled reports whether fault injection is active; nil-safe.
func (in *Injector) Enabled() bool { return in != nil }

// Config returns the plan; nil-safe (nil injector has no plan).
func (in *Injector) Config() *Config {
	if in == nil {
		return nil
	}
	return in.cfg
}

// FateFor draws the fate of one fabric message and counts it.
func (in *Injector) FateFor() Fate {
	if in == nil {
		return FateDeliver
	}
	c := in.cfg
	total := c.DropRate + c.CorruptRate + c.DelayRate
	if total <= 0 {
		return FateDeliver
	}
	u := in.rng.Float64()
	switch {
	case u < c.DropRate:
		in.Stats.Drops++
		return FateDrop
	case u < c.DropRate+c.CorruptRate:
		in.Stats.Corrupts++
		return FateCorrupt
	case u < total:
		in.Stats.Delays++
		return FateDelay
	}
	return FateDeliver
}

// CQError draws whether a posted work request fails with an error CQE.
func (in *Injector) CQError() bool {
	if in == nil || in.cfg.CQErrorRate <= 0 {
		return false
	}
	if in.rng.Float64() < in.cfg.CQErrorRate {
		in.Stats.CQErrors++
		return true
	}
	return false
}

// RegFail draws whether a registration attempt fails.
func (in *Injector) RegFail() bool {
	if in == nil || in.cfg.RegFailRate <= 0 {
		return false
	}
	if in.rng.Float64() < in.cfg.RegFailRate {
		in.Stats.RegFails++
		return true
	}
	return false
}

// Spike returns the delay-spike magnitude.
func (in *Injector) Spike() sim.Time {
	if in == nil {
		return 0
	}
	return in.cfg.DelaySpike
}

// Retry returns the effective retry configuration.
func (in *Injector) Retry() RetryConfig {
	if in == nil {
		return DefaultRetry()
	}
	return in.cfg.RetryOrDefault()
}

// Note records a fault/recovery event as a span instant; nil-safe and
// free when no collector is attached.
func (in *Injector) Note(at sim.Time, entity, action, detail string) {
	if in == nil {
		return
	}
	in.Spans.Instant(at, entity, action, detail)
}
