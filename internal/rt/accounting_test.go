package rt

import (
	"sync/atomic"
	"testing"
)

// TestLLPQueueAtomicAccounting audits the llpQueue RMW accounting op by op:
// every detach Swap costs exactly one Sched count — including the detach in
// pop/stealAll that may lose the race with a concurrent thief — while
// empty-queue polls (which return before any RMW) cost nothing.
func TestLLPQueueAtomicAccounting(t *testing.T) {
	r := New(Config{Workers: 2, Sched: SchedLLP, CountAtomics: true})
	owner, thief := r.Workers()[0], r.Workers()[1]
	s := r.sched.(*llp)
	q := &s.queues[0]

	// Empty polls before anything is queued: zero RMWs.
	if q.pop(owner) != nil || q.stealAll(thief) != nil {
		t.Fatal("empty queue yielded a task")
	}
	if owner.Atomics.Sched != 0 || thief.Atomics.Sched != 0 {
		t.Fatalf("empty polls were accounted: owner=%d thief=%d",
			owner.Atomics.Sched, thief.Atomics.Sched)
	}

	// Three pushes: one Swap each.
	t1, t2, t3 := &Task{}, &Task{}, &Task{}
	q.push(owner, t1, true)
	q.push(owner, t2, true)
	q.push(owner, t3, true)
	if owner.Atomics.Sched != 3 {
		t.Fatalf("3 pushes accounted %d Sched RMWs, want 3", owner.Atomics.Sched)
	}

	// Two pops (LIFO: newest first): one Swap each. The reattach of the
	// remainder is a plain store, not an RMW, and must not be counted.
	if got := q.pop(owner); got != t3 {
		t.Fatalf("pop returned %p, want newest %p", got, t3)
	}
	if got := q.pop(owner); got != t2 {
		t.Fatalf("pop returned %p, want %p", got, t2)
	}
	if owner.Atomics.Sched != 5 {
		t.Fatalf("3 pushes + 2 pops accounted %d, want 5", owner.Atomics.Sched)
	}
	// ...but it is a locked store, like the reattach of every push: 3 + 2.
	if owner.Atomics.Stores != 5 {
		t.Fatalf("3 pushes + 2 pops accounted %d reattach stores, want 5", owner.Atomics.Stores)
	}

	// A steal that wins takes the remaining chain with one Swap, accounted to
	// the thief.
	if got := q.stealAll(thief); got != t1 {
		t.Fatalf("stealAll returned %p, want %p", got, t1)
	}
	if thief.Atomics.Sched != 1 {
		t.Fatalf("successful steal accounted %d to thief, want 1", thief.Atomics.Sched)
	}

	// Now-empty queue: polls are free again.
	if q.pop(owner) != nil || q.stealAll(thief) != nil {
		t.Fatal("drained queue yielded a task")
	}
	if owner.Atomics.Sched != 5 || thief.Atomics.Sched != 1 {
		t.Fatalf("empty polls after drain were accounted: owner=%d thief=%d",
			owner.Atomics.Sched, thief.Atomics.Sched)
	}

	// pushChain inserts a whole bundle with a single detach/merge Swap.
	a, b := &Task{}, &Task{}
	a.next = b
	q.pushChain(owner, a, true)
	if owner.Atomics.Sched != 6 {
		t.Fatalf("pushChain accounted %d, want 6 (one Swap per bundle)", owner.Atomics.Sched)
	}
}

// TestCountAtomicsDisabledIsFree verifies the accounting is fully gated: with
// Config.CountAtomics off, queue traffic leaves every category at zero.
func TestCountAtomicsDisabledIsFree(t *testing.T) {
	r := New(Config{Workers: 1, Sched: SchedLLP})
	w := r.Workers()[0]
	s := r.sched.(*llp)
	q := &s.queues[0]
	for i := 0; i < 8; i++ {
		q.push(w, &Task{}, true)
	}
	for q.pop(w) != nil {
	}
	if total := w.Atomics.Total(); total != 0 {
		t.Fatalf("CountAtomics off but %d RMWs accounted", total)
	}
}

// TestChainDAGAtomicCounts runs a known DAG — a serial chain of N tasks on a
// single worker — and asserts the exact per-category RMW totals the Eq. 1
// model predicts for it. The chain's seed arrives through the injector (not
// accounted: it is off the task-to-task path by design); every subsequent
// task costs exactly one queue push and one queue pop Swap. Idle polls of the
// empty LLP queue must contribute nothing, so the totals are deterministic.
func TestChainDAGAtomicCounts(t *testing.T) {
	const n = 1000
	for _, tc := range []struct {
		name        string
		sched       SchedKind
		threadLocal bool
		wantTermDet uint64
	}{
		// Thread-local termination detection (§IV-B) removes all TermDet RMWs
		// from worker-slot accounting.
		{"LLP/threadlocal", SchedLLP, true, 0},
		{"LL/threadlocal", SchedLL, true, 0},
		// Process-wide counters cost one RMW per Discovered (n-1 successor
		// discoveries) plus one per Completed (n completions).
		{"LLP/shared", SchedLLP, false, 2*n - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Workers: 1, Sched: tc.sched, ThreadLocalTermDet: tc.threadLocal,
				UsePools: true, CountAtomics: true}
			r := New(cfg)
			var executed atomic.Int64
			var exec ExecFn
			exec = func(w *Worker, tk *Task) {
				if executed.Add(1) < n {
					nt := w.NewTask()
					nt.Exec = exec
					w.Discovered()
					w.Schedule(nt)
				}
				w.Completed()
				w.FreeTask(tk)
			}
			r.BeginAction()
			r.Start(false)
			r.BeginAction()
			r.Inject(&Task{Exec: exec})
			r.EndAction()
			r.WaitDone()
			if got := executed.Load(); got != n {
				t.Fatalf("executed %d tasks, want %d", got, n)
			}
			a := r.Atomics()
			// One push + one pop Swap per chained task; the injected seed is
			// retrieved through the (unaccounted, mutex-based) injector.
			if want := uint64(2 * (n - 1)); a.Sched != want {
				t.Fatalf("Sched=%d, want %d (one push + one pop per chained task)", a.Sched, want)
			}
			if a.TermDet != tc.wantTermDet {
				t.Fatalf("TermDet=%d, want %d", a.TermDet, tc.wantTermDet)
			}
			// Single worker: allocation and recycling stay owner-private, so
			// the pool's shared Treiber stack is never touched.
			if a.Pool != 0 {
				t.Fatalf("Pool=%d, want 0 (no cross-worker recycling on 1 worker)", a.Pool)
			}
			// Each execution allocates the successor before freeing itself, so
			// the free list is empty for exactly the first two NewTask calls;
			// afterwards it always holds the previous task.
			if a.Alloc != 2 {
				t.Fatalf("Alloc=%d, want 2", a.Alloc)
			}
			// The raw-runtime chain uses no data copies and no hash table.
			if a.Input != 0 || a.CopyRef != 0 || a.Bucket != 0 || a.RWLock != 0 {
				t.Fatalf("unexpected RMWs outside the scheduler: %+v", a)
			}
		})
	}
}
