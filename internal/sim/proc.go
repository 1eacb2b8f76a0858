package sim

import "fmt"

type procState int

const (
	procReady procState = iota
	procRunning
	procBlocked
	procDone
)

// Proc is a simulated process: a coroutine that executes in virtual time
// under kernel control. All Proc methods must be called from the process's
// own body while it holds control (i.e. from inside the function passed to
// Spawn, directly or indirectly).
type Proc struct {
	k     *Kernel
	id    int
	name  string
	state procState

	// The coroutine (see start): the kernel resumes the body with next until
	// it yields or returns; the body parks with yield, which reports false
	// once Shutdown has called stop.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	busy   Time // accumulated AdvanceBusy (compute/CPU-work) time
	daemon bool
	shard  int32 // sharded mode: home shard for this proc's wakeup events
}

// SetShard pins the process's wakeup events (Sleep, condition waits) to a
// shard of the lookahead-sharded kernel — topology owners call it after
// placement (a rank or proxy lives on its node's shard). Purely a placement
// hint; see ConfigureShards. Unlike most Proc methods it may be called from
// outside the process, during setup.
func (p *Proc) SetShard(s int) { p.shard = int32(s) }

// Shard returns the process's shard placement hint.
func (p *Proc) Shard() int { return int(p.shard) }

// SetDaemon marks the process as a daemon: it is expected to block forever
// (e.g. a progress engine) and is excluded from deadlock reporting.
func (p *Proc) SetDaemon(on bool) { p.daemon = on }

// Daemon reports whether the process is marked as a daemon.
func (p *Proc) Daemon() bool { return p.daemon }

// ID returns the process's kernel-unique identifier.
func (p *Proc) ID() int { return p.id }

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel the process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// BusyTime returns the total virtual time this process has spent in
// AdvanceBusy (modelled CPU work).
func (p *Proc) BusyTime() Time { return p.busy }

func (p *Proc) checkRunning() {
	if p.k.running != p {
		panic(fmt.Sprintf("sim: proc %q method called while not running (running=%v)", p.name, p.k.running))
	}
}

// yieldToKernel parks the coroutine and returns control to the kernel loop.
// The caller must have arranged for a future dispatch of p. If the kernel
// was shut down while the process was parked, the body unwinds via the
// shutdown sentinel (recovered by exit).
func (p *Proc) yieldToKernel() {
	p.state = procBlocked
	if !p.yield(struct{}{}) {
		panic(errShutdown)
	}
}

// exit is deferred around every process body: it retires the process and
// swallows the shutdown sentinel. Any other panic propagates out of the
// dispatching Run or RunUntil with its original value.
func (p *Proc) exit() {
	p.state = procDone
	p.k.live--
	if r := recover(); r != nil && r != errShutdown {
		panic(r)
	}
}

// Sleep advances the process's virtual time by d. Other events and processes
// run in the meantime. A non-positive d yields the processor for one
// scheduling round at the current timestamp.
func (p *Proc) Sleep(d Time) {
	p.checkRunning()
	if d < 0 {
		d = 0
	}
	k := p.k
	k.scheduleProc(k.now+d, p)
	p.yieldToKernel()
}

// AdvanceBusy is Sleep plus accounting: the elapsed time is recorded as CPU
// work (compute), which workloads use to report compute/communication
// splits.
func (p *Proc) AdvanceBusy(d Time) {
	if d > 0 {
		p.busy += d
	}
	p.Sleep(d)
}

// Yield gives other processes and events scheduled at the current timestamp
// an opportunity to run, then resumes.
func (p *Proc) Yield() { p.Sleep(0) }

// Cond is a condition variable for simulated processes. It has no associated
// lock (the simulation is single-threaded); use it with a predicate loop:
//
//	for !pred() {
//	    cond.Wait(p)
//	}
//
// Signal and Broadcast may be called from any context (another process or an
// event handler). The waiter queue keeps its backing array across wakeups,
// so a steady wait/wake cycle allocates nothing.
type Cond struct {
	waiters []*Proc
}

// Wait blocks p until the condition is signalled. Spurious wakeups are
// possible by design; always re-check the predicate.
func (c *Cond) Wait(p *Proc) {
	p.checkRunning()
	c.waiters = append(c.waiters, p)
	p.yieldToKernel()
}

// Broadcast wakes all waiting processes at the current virtual time.
func (c *Cond) Broadcast() {
	if len(c.waiters) == 0 {
		return
	}
	for i, w := range c.waiters {
		w.k.scheduleProc(w.k.now, w)
		c.waiters[i] = nil
	}
	c.waiters = c.waiters[:0]
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	n := copy(c.waiters, c.waiters[1:])
	c.waiters[n] = nil
	c.waiters = c.waiters[:n]
	p.k.scheduleProc(p.k.now, p)
}

// NWaiters reports how many processes are blocked on the condition.
func (c *Cond) NWaiters() int { return len(c.waiters) }

// WaitGroup counts outstanding work items across simulated processes.
type WaitGroup struct {
	n    int
	cond Cond
}

// Add increments the counter by delta.
func (wg *WaitGroup) Add(delta int) {
	wg.n += delta
	if wg.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.n == 0 {
		wg.cond.Broadcast()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks p until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.n > 0 {
		wg.cond.Wait(p)
	}
}
