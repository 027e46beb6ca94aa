package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// Close ends every parked process, whatever it is parked on: deferred
// calls and exit callbacks run, every process is dead afterwards, and the
// engine holds no goroutine. The scenario runs once first to fill the
// process-wide coroutine pool race builds keep (coro_race.go).
func TestCloseUnwindsParkedProcs(t *testing.T) {
	scenario := func() {
		e := NewEngine()
		sig := NewSignal(e)
		ctr := NewCounter(e)
		q := NewQueue[int](e)
		res := NewResource(e, 1)
		var deferred, exited []string
		spawn := func(name string, body func(p *Proc)) *Proc {
			p := e.Go(name, func(p *Proc) {
				defer func() { deferred = append(deferred, name) }()
				body(p)
				t.Errorf("%s resumed past its park", name)
			})
			p.OnExit(func() { exited = append(exited, name) })
			return p
		}
		procs := []*Proc{
			spawn("signal", func(p *Proc) { sig.Wait(p) }),
			spawn("counter", func(p *Proc) { ctr.WaitGE(p, 1) }),
			spawn("queue", func(p *Proc) { q.Pop(p) }),
			spawn("holder", func(p *Proc) { res.Acquire(p, 1); sig.Wait(p) }),
			spawn("resource", func(p *Proc) { res.Acquire(p, 1) }),
		}
		e.Run()
		if n := len(e.BlockedWaiters()); n != 4 {
			t.Fatalf("blocked waiters before Close = %d, want 4", n)
		}
		e.Close()
		want := "[signal counter queue holder resource]"
		if got := fmt.Sprint(deferred); got != want {
			t.Errorf("deferred calls ran for %s, want %s", got, want)
		}
		if got := fmt.Sprint(exited); got != want {
			t.Errorf("exit callbacks ran for %s, want %s", got, want)
		}
		for _, p := range procs {
			if !p.Dead() {
				t.Errorf("%s not dead after Close", p.Name())
			}
		}
		if res.InUse() != 1 {
			// The holder's unit stays taken (it never released it), but the
			// killed waiter behind it must not have been granted one.
			t.Errorf("resource in use = %d, want 1", res.InUse())
		}
		if len(e.BlockedWaiters()) != 0 {
			t.Error("blocked waiters listed after Close")
		}
	}
	scenario()
	before := runtime.NumGoroutine()
	scenario()
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before, %d after Close", before, after)
	}
}

// A process killed before its first dispatch runs its exit callbacks at
// that dispatch without taking a coroutine from the pool.
func TestKilledBeforeDispatchTakesNoCoroutine(t *testing.T) {
	e := NewEngine()
	exited := false
	p := e.Go("early", func(*Proc) { t.Error("body ran after pre-dispatch kill") })
	p.OnExit(func() { exited = true })
	e.Kill(p)
	e.RunUntil(e.Now())
	if !exited || !p.dead {
		t.Fatalf("exited=%v dead=%v, want both true", exited, p.dead)
	}
	if p.co != nil || len(e.idle) != 0 {
		t.Fatalf("killed-before-dispatch process took a coroutine (pool %d)", len(e.idle))
	}
}

// A model panic inside a reused coroutine surfaces on the event loop with
// the process's name, after its exit callbacks.
func TestPooledProcPanicSurfaces(t *testing.T) {
	e := NewEngine()
	e.Go("warm", func(p *Proc) { p.Sleep(1) })
	e.RunUntil(10)
	if len(e.idle) != 1 {
		t.Fatalf("pool has %d coroutines after warm-up, want 1", len(e.idle))
	}
	warm := e.idle[0]
	exited := false
	x := e.Go("x", func(p *Proc) { panic("boom") })
	x.OnExit(func() { exited = true })
	got := func() (r any) {
		defer func() { r = recover() }()
		e.RunUntil(20)
		return nil
	}()
	if want := `sim: process "x" panicked: boom`; got != want {
		t.Fatalf("recovered %v, want %q", got, want)
	}
	if !exited || !x.dead {
		t.Fatalf("exited=%v dead=%v after panic, want both true", exited, x.dead)
	}
	if len(e.idle) != 1 || e.idle[0] != warm {
		t.Fatal("panicking process did not run on, and return, the pooled coroutine")
	}
	e.Close()
}

// A coroutine whose process was killed mid-wait starts the next process
// clean: the corpse drops its wait annotation, the new process starts
// unannotated, and only the new process's own waits are diagnosed.
func TestCoroutineReusedAfterKillStartsClean(t *testing.T) {
	e := NewEngine()
	ctr := NewCounter(e)
	victim := e.Go("victim", func(p *Proc) { ctr.WaitGE(p, 5) })
	e.RunUntil(0)
	co := victim.co
	if victim.waiting == nil {
		t.Fatal("victim not annotated while parked on the counter")
	}
	e.Kill(victim)
	e.RunUntil(1)
	if !victim.dead || victim.waiting != nil {
		t.Fatalf("killed victim: dead=%v waiting=%v, want true and nil", victim.dead, victim.waiting)
	}
	var sawWaiting *waitState
	next := e.Go("next", func(p *Proc) {
		sawWaiting = p.waiting
		NewSignal(e).Wait(p)
	})
	e.RunUntil(2)
	if next.co != co {
		t.Fatal("second process did not reuse the killed process's coroutine")
	}
	if sawWaiting != nil {
		t.Fatal("reused coroutine started its process with a wait annotation")
	}
	bw := e.BlockedWaiters()
	if len(bw) != 1 || bw[0].Proc != "next" || bw[0].Kind != "signal" {
		t.Fatalf("blocked waiters = %v, want only next on a signal", bw)
	}
	e.Close()
}

// Spawning and finishing a process on a warm engine allocates only the
// Proc itself: the coroutine, its goroutine and the procs list are reused.
func TestSpawnAllocsOnWarmEngine(t *testing.T) {
	e := NewEngine()
	fn := func(p *Proc) {}
	for i := 0; i < 100; i++ {
		e.Go("w", fn)
	}
	e.RunUntil(e.Now())
	allocs := testing.AllocsPerRun(1000, func() {
		e.Go("w", fn)
		e.RunUntil(e.Now())
	})
	if allocs > 1 {
		t.Fatalf("spawn+finish allocates %.2f times, want <= 1", allocs)
	}
	e.Close()
}

// The process list keeps only live processes once the dead outnumber
// them, in spawn order, so a diagnosis lists blocked processes as before.
func TestProcListDropsDeadInSpawnOrder(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e)
	var want []string
	for i := 0; i < 500; i++ {
		name := fmt.Sprintf("p%d", i)
		if i%100 == 7 {
			want = append(want, name)
			e.Go(name, func(p *Proc) { sig.Wait(p) })
		} else {
			e.Go(name, func(p *Proc) { p.Sleep(1) })
		}
	}
	e.Run()
	e.Go("last", func(p *Proc) {})
	e.Run()
	if len(e.procs) > 2*len(want)+1 {
		t.Fatalf("procs list holds %d entries for %d live processes", len(e.procs), len(want))
	}
	var got []string
	for _, w := range e.BlockedWaiters() {
		got = append(got, w.Proc)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("blocked waiters %v, want %v", got, want)
	}
	e.Close()
}

// Run releases the coroutines left idle when it returns: a drained engine
// whose processes all finished holds no goroutine. The first run fills the
// process-wide coroutine pool race builds keep.
func TestRunReleasesIdleCoroutines(t *testing.T) {
	run := func() {
		e := NewEngine()
		for i := 0; i < 8; i++ {
			e.Go("w", func(p *Proc) { p.Sleep(Time(i + 1)) })
		}
		e.Run()
		if len(e.idle) != 0 {
			t.Fatalf("%d idle coroutines left after Run", len(e.idle))
		}
	}
	run()
	before := runtime.NumGoroutine()
	run()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before, %d after Run", before, after)
	}
}
