package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// The zero-alloc contract of the event core: once the arena and heap have
// grown to the run's high-water mark, scheduling and firing events performs
// no allocation at all.

func TestAtSteadyStateAllocFree(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	// Warm the arena/heap/free-list.
	for i := 0; i < 8; i++ {
		k.At(Time(i), fn)
	}
	k.Run()
	allocs := testing.AllocsPerRun(200, func() {
		k.At(1, fn)
		k.RunUntil(k.Now() + 1)
	})
	if allocs > 0 {
		t.Fatalf("At+RunUntil allocated %.1f objects per event in steady state, want 0", allocs)
	}
}

func TestAtCallSteadyStateAllocFree(t *testing.T) {
	k := NewKernel()
	fn := func(Time) {}
	k.AtCall(0, fn)
	k.Run()
	allocs := testing.AllocsPerRun(200, func() {
		k.AtCall(1, fn)
		k.RunUntil(k.Now() + 1)
	})
	if allocs > 0 {
		t.Fatalf("AtCall+RunUntil allocated %.1f objects per event in steady state, want 0", allocs)
	}
}

func TestSleepSteadyStateAllocFree(t *testing.T) {
	k := NewKernel()
	k.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(10)
		}
	})
	k.RunUntil(1000) // warm up: arena, heap, coroutine stack
	allocs := testing.AllocsPerRun(100, func() {
		k.RunUntil(k.Now() + 100)
	})
	k.Shutdown()
	if allocs > 0 {
		t.Fatalf("Sleep round-trips allocated %.1f objects per run in steady state, want 0", allocs)
	}
}

// A Cond keeps its waiter queue's backing array across wakeups: a steady
// handoff between two procs — one woken by Signal, the other by Broadcast —
// allocates nothing.
func TestCondHandoffSteadyStateAllocFree(t *testing.T) {
	k := NewKernel()
	var ping, pong Cond
	turn := 0
	k.Spawn("ping", func(p *Proc) {
		for {
			p.Sleep(1)
			turn = 1
			pong.Signal()
			for turn != 0 {
				ping.Wait(p)
			}
		}
	})
	k.Spawn("pong", func(p *Proc) {
		for {
			for turn != 1 {
				pong.Wait(p)
			}
			turn = 0
			ping.Broadcast()
		}
	})
	k.RunUntil(100) // warm up: arena, heap, waiter queues
	allocs := testing.AllocsPerRun(100, func() {
		k.RunUntil(k.Now() + 10)
	})
	k.Shutdown()
	if allocs > 0 {
		t.Fatalf("Cond handoffs allocated %.1f objects per run in steady state, want 0", allocs)
	}
}

// Reusing the waiter queue must not change wake order: Signal wakes the
// longest waiter and Broadcast wakes the rest first-come first-served, round
// after round.
func TestCondWakeOrderStableAcrossReuse(t *testing.T) {
	k := NewKernel()
	var c Cond
	var order []string
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("w%d", i)
		k.Spawn(name, func(p *Proc) {
			for round := 0; round < 3; round++ {
				c.Wait(p)
				order = append(order, name)
			}
		})
	}
	k.Spawn("driver", func(p *Proc) {
		for round := 0; round < 3; round++ {
			p.Sleep(10)
			c.Signal()
			p.Sleep(10)
			c.Broadcast()
		}
	})
	k.Run()
	// Round 0 queues w0..w3. Signal wakes w0, which re-queues behind w3;
	// Broadcast then wakes w1 w2 w3 w0, which re-queue in that order.
	want := "w0 w1 w2 w3 w0 w1 w2 w3 w0 w1 w2 w3"
	if got := fmt.Sprint(order); got != "["+want+"]" {
		t.Fatalf("wake order %v, want [%s]", got, want)
	}
}

// A panic in a process body surfaces from Run and RunUntil with its
// original value. The kernel is left in handler context, so a later
// Shutdown still unwinds the processes that remain.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	boom := errors.New("boom")
	for _, bounded := range []bool{false, true} {
		k := NewKernel()
		var c Cond
		k.Spawn("parked", func(p *Proc) { c.Wait(p) })
		k.Spawn("sleeper", func(p *Proc) { p.Sleep(1000) })
		k.Spawn("faulty", func(p *Proc) {
			p.Sleep(5)
			panic(boom)
		})
		got := func() (r any) {
			defer func() { r = recover() }()
			if bounded {
				k.RunUntil(100)
			} else {
				k.Run()
			}
			return nil
		}()
		if got != boom {
			t.Fatalf("bounded=%v: recovered %v, want the body's panic value", bounded, got)
		}
		if k.Now() != 5 || k.Live() != 2 {
			t.Fatalf("bounded=%v: now=%v live=%d after the panic, want 5 and 2", bounded, k.Now(), k.Live())
		}
		k.Shutdown()
		if k.Live() != 0 {
			t.Fatalf("bounded=%v: Live() = %d after Shutdown, want 0", bounded, k.Live())
		}
	}
}

// Shutdown releases every process goroutine whatever state it was left in —
// parked on a Cond, sleeping past the deadline, or spawned and never
// dispatched — across many kernels.
func TestShutdownManyKernelsReturnsGoroutinesToBaseline(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 1200; i++ {
		k := NewKernel()
		var c Cond
		k.Spawn("parked", func(p *Proc) { c.Wait(p) })
		k.Spawn("sleeping", func(p *Proc) {
			for {
				p.Sleep(50)
			}
		})
		k.RunUntil(120)
		k.Spawn("never-started", func(p *Proc) { t.Error("never-started proc ran") })
		k.Shutdown()
		if k.Live() != 0 {
			t.Fatalf("kernel %d: Live() = %d after Shutdown, want 0", i, k.Live())
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("%d goroutines after 1200 shutdowns, %d before: procs leaked", g, before)
	}
}

// Property: with arbitrary delays (including many ties), events fire in
// exactly the order of a reference stable sort by timestamp — i.e. ties
// fire in scheduling order.
func TestPropertyTiesMatchReferenceStableSort(t *testing.T) {
	f := func(delays []uint8) bool {
		k := NewKernel()
		var fired []int
		for i, d := range delays {
			i := i
			k.At(Time(d%8), func() { fired = append(fired, i) }) // %8 forces ties
		}
		k.Run()

		ref := make([]int, len(delays))
		for i := range ref {
			ref[i] = i
		}
		sort.SliceStable(ref, func(a, b int) bool {
			return delays[ref[a]]%8 < delays[ref[b]]%8
		})
		if len(fired) != len(ref) {
			return false
		}
		for i := range ref {
			if fired[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// RunUntil(d) must fire events scheduled at exactly d, not stop short of
// them, and leave events at d+1 queued.
func TestRunUntilFiresEventsExactlyAtDeadline(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, d := range []Time{99, 100, 100, 101} {
		d := d
		k.At(d, func() { fired = append(fired, d) })
	}
	if n := k.RunUntil(100); n != 3 {
		t.Fatalf("RunUntil(100) fired %d events, want 3 (two exactly at the deadline)", n)
	}
	if len(fired) != 3 || fired[1] != 100 || fired[2] != 100 {
		t.Fatalf("fired %v, want [99 100 100]", fired)
	}
	if k.Pending() != 1 {
		t.Fatalf("%d events pending, want 1 (the one beyond the deadline)", k.Pending())
	}
}

// Re-entrant At: an event handler scheduling more events — both at the
// current instant and later — must see them all fire, in order. This
// exercises arena slot reuse while the popped event's callback is running.
func TestReentrantAtFromFiringEvent(t *testing.T) {
	k := NewKernel()
	var order []string
	k.At(10, func() {
		order = append(order, "outer")
		k.At(0, func() { order = append(order, "same-instant") })
		k.At(5, func() {
			order = append(order, "later")
			k.At(0, func() { order = append(order, "nested") })
		})
	})
	end := k.Run()
	want := []string{"outer", "same-instant", "later", "nested"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if end != 15 {
		t.Fatalf("end = %v, want 15", end)
	}
}

// Shutdown must unwind parked process goroutines. Without it, every blocked
// proc pins its goroutine (and the whole kernel) forever.
func TestShutdownReleasesParkedGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		k := NewKernel()
		var c Cond
		for j := 0; j < 5; j++ {
			k.Spawn("blocked", func(p *Proc) { c.Wait(p) })
		}
		k.Run() // all procs park forever; Run reports them deadlocked
		if len(k.Deadlocked) != 5 {
			t.Fatalf("expected 5 deadlocked procs, got %d", len(k.Deadlocked))
		}
		k.Shutdown()
	}
	// Let the unwound goroutines exit.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("%d goroutines after shutdowns, %d before: parked procs leaked", g, before)
	}
}

// Shutdown must also unwind procs that were spawned but never dispatched
// (their start event still queued), without running their body.
func TestShutdownBeforeFirstDispatch(t *testing.T) {
	k := NewKernel()
	ran := false
	k.Spawn("never-started", func(p *Proc) { ran = true })
	k.Shutdown()
	if ran {
		t.Fatal("Shutdown ran the body of a never-dispatched proc")
	}
	if k.Live() != 0 {
		t.Fatalf("Live() = %d after Shutdown, want 0", k.Live())
	}
}

// Shutdown from inside the simulation is a programming error and must panic
// rather than unwind the coroutine it is called from.
func TestShutdownFromInsideSimulationPanics(t *testing.T) {
	k := NewKernel()
	k.Spawn("suicidal", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Shutdown from a proc did not panic")
			}
			panic(errShutdown) // unwind this body cleanly
		}()
		k.Shutdown()
	})
	k.Run()
}

// Steady-state scheduling benchmarks; with a warm arena both should report
// 0 allocs/op.

func BenchmarkAtSteadyState(b *testing.B) {
	k := NewKernel()
	fn := func() {}
	k.At(0, fn)
	k.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.At(1, fn)
		k.RunUntil(k.Now() + 1)
	}
}

func BenchmarkSleepRoundTrip(b *testing.B) {
	k := NewKernel()
	k.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(1)
		}
	})
	k.RunUntil(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.RunUntil(k.Now() + 1)
	}
	b.StopTimer()
	k.Shutdown()
}

// A killed proc's body must not keep running past its next yield.
func TestShutdownStopsProcsMidSleep(t *testing.T) {
	k := NewKernel()
	steps := 0
	k.Spawn("stepper", func(p *Proc) {
		for {
			steps++
			p.Sleep(10)
		}
	})
	k.RunUntil(95) // 10 wakeups: t=0..90
	got := steps
	k.Shutdown()
	if steps != got {
		t.Fatalf("proc advanced during Shutdown: %d -> %d", got, steps)
	}
}
