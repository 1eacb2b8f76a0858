package sim

import (
	"errors"
	"fmt"
)

// Action is a pre-allocated deliverable: an object whose Fire method runs
// when its scheduled time arrives. It exists for the per-message hot paths
// (fabric deliveries, verbs completion flights) that would otherwise build a
// fresh closure per operation — a pooled struct implementing Action can be
// scheduled with AtAction and recycled by its own Fire, so steady-state
// message traffic allocates nothing.
type Action interface {
	Fire(at Time)
}

// event is one arena slot: a scheduled callback, a timed callback, a parked
// process waiting to be dispatched, or a pooled Action. Exactly one of
// fn/fnT/p/act is set. Events with equal timestamps fire in scheduling order
// (seq), which makes runs deterministic.
//
// Events live in the kernel's arena (a value slice indexed by evIdx) and are
// recycled through a free list, so steady-state scheduling allocates
// nothing: no per-event heap object and no interface{} boxing, unlike the
// container/heap implementation this replaced.
//
// shard is a placement hint for the sharded run mode (see ConfigureShards):
// it selects which per-shard heap queues the event. It is never a
// correctness input — dispatch order is the global (at, seq) order in every
// mode — so a stale or wrong shard tag can only cost parallelism, not
// determinism.
type event struct {
	at    Time
	seq   uint64
	fn    func()     // plain callback (handler context)
	fnT   func(Time) // timed callback; receives the firing time
	p     *Proc      // parked process to dispatch
	act   Action     // pooled deliverable; receives the firing time
	shard int32
}

// evIdx indexes the event arena. int32 keeps the heap slice compact; two
// billion simultaneously-pending events is far beyond any plausible run.
type evIdx = int32

// heapArity is the fan-out of the event min-heap. A 4-ary heap does the same
// number of comparisons per level as binary on sift-down but halves the tree
// depth, which wins on the pop-heavy DES workload (every event is popped
// exactly once).
const heapArity = 4

// Kernel is the discrete-event simulation engine. Create one with NewKernel,
// spawn processes with Spawn, schedule raw callbacks with At, then call Run.
type Kernel struct {
	now Time
	seq uint64

	arena []event // event storage; slots are recycled via freeList
	freeL []evIdx // free slots in arena
	heap  []evIdx // serial mode: min-heap of pending events ordered by (at, seq)

	procs   []*Proc
	live    int   // spawned but not finished
	running *Proc // process currently executing, nil in handler context
	dead    bool  // set by Shutdown; the kernel accepts no further work

	// Sharded mode (ConfigureShards): per-shard heaps plus the state of the
	// lookahead window currently being dispatched. curShard is the shard tag
	// of the event being fired; events scheduled from inside a handler
	// inherit it, so causally-local chains stay on their shard without every
	// call site passing a tag.
	shards    []shardQ
	lookahead Time
	curShard  int32
	winActive bool
	winEnd    Time
	winOv     []evIdx // overflow heap: events scheduled into the open window
	workers   *shardWorkers

	// tick, when set, fires whenever the clock reaches tickAt: it runs
	// after the clock advances but before the event at that timestamp is
	// dispatched, and returns the next time it wants to fire. It is a pure
	// observer — it must not schedule events or consume virtual time — and
	// exists so samplers (the telemetry recorder) can close fixed-width
	// virtual-time buckets without injecting events into the heap, which
	// would perturb seq numbering and break bit-identical timings.
	tick   func(Time) Time
	tickAt Time

	// Deadlocked is filled by Run when it returns with processes still
	// blocked and no events pending.
	Deadlocked []*Proc
}

// NewKernel returns an empty kernel with the clock at zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Clock is the read-only view of a virtual clock. Kernel satisfies it;
// observability layers (metrics, spans) depend on Clock rather than the
// full Kernel so they can read timestamps without being able to schedule
// work — reading a Clock can never perturb the simulation.
type Clock interface {
	Now() Time
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// At schedules fn to run at now+delay in kernel (handler) context.
// A negative delay is treated as zero.
func (k *Kernel) At(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	k.schedule(k.now+delay, fn)
}

// AtShard is At with an explicit shard placement hint, for cross-shard
// traffic whose destination the caller knows (the fabric tags deliveries
// with the receiving node's shard). In serial mode the hint is ignored.
func (k *Kernel) AtShard(shard int, delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	i := k.slot()
	ev := &k.arena[i]
	k.seq++
	ev.at, ev.seq, ev.fn, ev.shard = k.now+delay, k.seq, fn, int32(shard)
	k.enqueue(i)
}

// AtCall schedules fn to run at now+delay in handler context, passing the
// firing time. It exists so completion callbacks with a (Time) parameter can
// be scheduled directly — `k.AtCall(d, op.OnComplete)` — instead of through
// a `func() { op.OnComplete(k.Now()) }` wrapper that allocates a closure per
// operation. A negative delay is treated as zero.
func (k *Kernel) AtCall(delay Time, fn func(Time)) {
	if delay < 0 {
		delay = 0
	}
	i := k.slot()
	ev := &k.arena[i]
	k.seq++
	ev.at, ev.seq, ev.fnT, ev.shard = k.now+delay, k.seq, fn, k.curShard
	k.enqueue(i)
}

// AtAction schedules a pooled deliverable at now+delay (see Action). The
// event slot stores the interface value directly, so scheduling a pointer-
// typed Action allocates nothing. A negative delay is treated as zero.
func (k *Kernel) AtAction(delay Time, a Action) {
	if delay < 0 {
		delay = 0
	}
	i := k.slot()
	ev := &k.arena[i]
	k.seq++
	ev.at, ev.seq, ev.act, ev.shard = k.now+delay, k.seq, a, k.curShard
	k.enqueue(i)
}

// AtActionShard is AtAction with an explicit shard placement hint.
func (k *Kernel) AtActionShard(shard int, delay Time, a Action) {
	if delay < 0 {
		delay = 0
	}
	i := k.slot()
	ev := &k.arena[i]
	k.seq++
	ev.at, ev.seq, ev.act, ev.shard = k.now+delay, k.seq, a, int32(shard)
	k.enqueue(i)
}

func (k *Kernel) schedule(at Time, fn func()) {
	i := k.slot()
	ev := &k.arena[i]
	k.seq++
	ev.at, ev.seq, ev.fn, ev.shard = at, k.seq, fn, k.curShard
	k.enqueue(i)
}

// scheduleProc schedules a direct dispatch of p at the given time. This is
// the allocation-free fast path for Sleep and condition wakeups: the event
// carries the process pointer itself, so no per-wakeup closure is created.
// The event is placed on the process's own shard — a wakeup belongs to the
// woken process's timeline, wherever the waker ran.
func (k *Kernel) scheduleProc(at Time, p *Proc) {
	i := k.slot()
	ev := &k.arena[i]
	k.seq++
	ev.at, ev.seq, ev.p, ev.shard = at, k.seq, p, p.shard
	k.enqueue(i)
}

// slot returns a free arena index, growing the arena only when the free
// list is empty (steady state reuses slots and allocates nothing).
func (k *Kernel) slot() evIdx {
	if k.dead {
		panic("sim: schedule on a kernel after Shutdown")
	}
	if n := len(k.freeL); n > 0 {
		i := k.freeL[n-1]
		k.freeL = k.freeL[:n-1]
		return i
	}
	k.arena = append(k.arena, event{})
	return evIdx(len(k.arena) - 1)
}

// enqueue routes a filled arena slot to the pending structure its mode and
// shard call for: the single serial heap, the event's shard heap, or — when
// the event lands inside the lookahead window currently being dispatched —
// the window's overflow heap, which the merge loop drains in (at, seq)
// order alongside the extracted batches.
func (k *Kernel) enqueue(i evIdx) {
	if len(k.shards) == 0 {
		k.heap = k.hpush(k.heap, i)
		return
	}
	ev := &k.arena[i]
	s := ev.shard
	if s < 0 || int(s) >= len(k.shards) {
		s = 0
		ev.shard = 0
	}
	if k.winActive && ev.at < k.winEnd {
		k.winOv = k.hpush(k.winOv, i)
		return
	}
	sq := &k.shards[s]
	sq.heap = k.hpush(sq.heap, i)
}

// less orders heap entries by (at, seq).
func (k *Kernel) less(a, b evIdx) bool {
	ea, eb := &k.arena[a], &k.arena[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

// hpush appends an event index to a heap slice and restores the invariant.
func (k *Kernel) hpush(h []evIdx, i evIdx) []evIdx {
	h = append(h, i)
	c := len(h) - 1
	for c > 0 {
		parent := (c - 1) / heapArity
		if !k.less(h[c], h[parent]) {
			break
		}
		h[c], h[parent] = h[parent], h[c]
		c = parent
	}
	return h
}

// hpop removes and returns the minimum of a heap slice. Unlike the firing
// paths it performs no in-the-past check: extraction pops events whose time
// is still ahead of the clock (fire checks when it advances the clock).
func (k *Kernel) hpop(h []evIdx) ([]evIdx, evIdx) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	// Sift down.
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if k.less(h[c], h[best]) {
				best = c
			}
		}
		if !k.less(h[best], h[i]) {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	return h, top
}

// fire releases event slot i and runs its payload. The arena slot is freed
// before the callback runs, so events scheduled from inside the callback can
// reuse it; the fields needed are copied out first. It panics on the
// corruption every run loop must catch: an event scheduled in the past.
func (k *Kernel) fire(i evIdx) {
	ev := &k.arena[i]
	at, fn, fnT, p, act, shard := ev.at, ev.fn, ev.fnT, ev.p, ev.act, ev.shard
	if at < k.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: %v < %v", at, k.now))
	}
	ev.fn, ev.fnT, ev.p, ev.act = nil, nil, nil, nil
	k.freeL = append(k.freeL, i)
	k.now = at
	k.curShard = shard
	for k.tick != nil && at >= k.tickAt {
		k.tickAt = k.tick(at)
	}
	switch {
	case p != nil:
		k.dispatch(p)
	case fnT != nil:
		fnT(at)
	case act != nil:
		act.Fire(at)
	default:
		fn()
	}
}

// step pops and fires the earliest event (serial mode).
func (k *Kernel) step() {
	var i evIdx
	k.heap, i = k.hpop(k.heap)
	k.fire(i)
}

// Spawn creates a new simulated process that will begin executing fn at the
// current virtual time. fn runs as a coroutine, and only while the kernel
// has handed it control: a handoff is a direct coroutine switch, not a trip
// through the Go scheduler. The process inherits the current shard tag;
// topology owners (the cluster) override it with SetShard after placement.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	if k.dead {
		panic("sim: Spawn on a kernel after Shutdown")
	}
	p := &Proc{
		k:     k,
		id:    len(k.procs),
		name:  name,
		shard: k.curShard,
	}
	k.procs = append(k.procs, p)
	k.live++
	p.start(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.exit()
		fn(p)
	})
	k.scheduleProc(k.now, p)
	return p
}

// dispatch hands control to p until it blocks or finishes. A panic in the
// body propagates from here with its original value; the deferred reset
// keeps the kernel in handler context so a later Shutdown still unwinds the
// remaining processes.
func (k *Kernel) dispatch(p *Proc) {
	if p.state == procDone {
		return
	}
	p.state = procRunning
	k.running = p
	defer func() { k.running = nil }()
	p.next()
}

// errShutdown is the sentinel Shutdown throws through parked process
// bodies; exit recovers it so the body unwinds cleanly.
var errShutdown = errors.New("sim: kernel shut down")

// Shutdown unwinds every process that has not finished: parked processes are
// stopped, their pending yield reports false and the body unwinds via a
// sentinel panic that exit recovers; spawned-but-never-started processes are
// stopped without running their body. Without it, a kernel abandoned with
// blocked processes (deadlock reports, RunUntil stopping early, daemons
// whose wakeup never came) leaks one parked coroutine goroutine per process
// for the life of the OS process — benchmark sweeps build thousands of
// kernels, so bench/test helpers call Shutdown on every kernel they retire.
// Shard extraction workers (ConfigureShards) are stopped the same way.
//
// Shutdown must be called from outside the kernel (not from a process or
// handler). Afterwards the kernel is dead: Spawn, Run, RunUntil, and every
// scheduling call panic, so no pooled arena slot, parked wakeup, or SetTick
// observer can be reused or fired by a stale reference to a retired kernel.
func (k *Kernel) Shutdown() {
	if k.running != nil {
		panic("sim: Shutdown called from inside the simulation")
	}
	for _, p := range k.procs {
		switch p.state {
		case procDone:
			continue
		case procReady: // never dispatched: stop skips the body and its exit
			p.state = procDone
			k.live--
		}
		p.stop()
	}
	k.stopWorkers()
	k.dead = true
}

// collectDeadlocked records non-daemon processes that are blocked with no
// pending event left to wake them.
func (k *Kernel) collectDeadlocked() {
	if k.live == 0 {
		return
	}
	for _, p := range k.procs {
		if p.state == procBlocked && !p.daemon {
			k.Deadlocked = append(k.Deadlocked, p)
		}
	}
}

// Run executes events until the queue is empty or until all processes have
// finished. It returns the final virtual time. If processes remain blocked
// with no pending events, they are reported in k.Deadlocked.
func (k *Kernel) Run() Time {
	if k.dead {
		panic("sim: Run on a kernel after Shutdown")
	}
	k.Deadlocked = nil
	if len(k.shards) > 0 {
		k.runSharded(0, false)
	} else {
		for len(k.heap) > 0 {
			k.step()
		}
	}
	k.collectDeadlocked()
	return k.now
}

// RunUntil executes events with timestamps <= deadline, then stops. Pending
// events beyond the deadline remain queued; the clock is advanced to the
// deadline. It returns the number of events fired. Like Run, it panics on
// events scheduled in the past, and populates k.Deadlocked when it drains
// the whole queue (not merely reaches the deadline) with blocked non-daemon
// processes remaining.
func (k *Kernel) RunUntil(deadline Time) int {
	if k.dead {
		panic("sim: RunUntil on a kernel after Shutdown")
	}
	k.Deadlocked = nil
	fired := 0
	if len(k.shards) > 0 {
		fired = k.runSharded(deadline, true)
	} else {
		for len(k.heap) > 0 && k.arena[k.heap[0]].at <= deadline {
			k.step()
			fired++
		}
	}
	if k.now < deadline {
		k.now = deadline
		for k.tick != nil && k.now >= k.tickAt {
			k.tickAt = k.tick(k.now)
		}
	}
	if k.Pending() == 0 {
		k.collectDeadlocked()
	}
	return fired
}

// SetTick installs the kernel's sampling hook: fn fires the first time the
// clock reaches `first` (before the event at that timestamp is dispatched)
// and returns the next firing time. The hook observes — it must not
// schedule work — so installing it cannot move any simulated timestamp.
// When the clock jumps across several firing times in one step, fn is
// invoked repeatedly within that step until its returned time is in the
// future, so fixed-width samplers see every bucket boundary exactly once;
// fn must therefore advance its returned time on every call. A nil fn
// uninstalls the hook.
func (k *Kernel) SetTick(first Time, fn func(Time) Time) {
	k.tick, k.tickAt = fn, first
}

// Pending reports the number of queued events.
func (k *Kernel) Pending() int {
	n := len(k.heap) + len(k.winOv)
	for s := range k.shards {
		sq := &k.shards[s]
		n += len(sq.heap) + len(sq.batch) - sq.cur
	}
	return n
}

// Live reports the number of spawned processes that have not finished.
func (k *Kernel) Live() int { return k.live }

// Procs returns all processes ever spawned on this kernel.
func (k *Kernel) Procs() []*Proc { return k.procs }
