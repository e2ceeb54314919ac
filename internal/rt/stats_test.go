package rt

import (
	"errors"
	"sync/atomic"
	"testing"
)

// checkExactStats asserts the post-WaitDone invariants of the buffered
// per-task statistics: every body that ran is counted once as executed or
// inlined, and task and copy objects balance.
func checkExactStats(t *testing.T, r *Runtime, bodies int64) {
	t.Helper()
	var ran int64
	for _, w := range r.Workers() {
		ran += w.Stats.Executed.Load() + w.Stats.Inlined.Load()
	}
	if ran != bodies {
		t.Errorf("Executed+Inlined = %d, want %d bodies run", ran, bodies)
	}
	if got, put := r.TaskBalance(); got != put {
		t.Errorf("TaskBalance: got %d, put %d", got, put)
	}
	if got, put := r.CopyBalance(); got != put {
		t.Errorf("CopyBalance: got %d, put %d", got, put)
	}
}

// seedAndWait starts r, injects one task obtained from the main service
// worker with key 0 and one empty input slot, and waits for termination.
func seedAndWait(r *Runtime, exec ExecFn) {
	r.BeginAction()
	r.Start(false)
	sw := r.ServiceWorker(0)
	seed := sw.NewTask()
	seed.Exec = exec
	seed.SetKey(sw, 0)
	seed.SetNumInputs(1)
	r.BeginAction()
	r.Inject(seed)
	r.EndAction()
	r.WaitDone()
}

// runCopyChain runs a chain of n tasks on r, each handing a fresh copy to
// its successor and releasing its own input. With Config.InlineTasks set,
// every other successor runs inline at the discovery site. body runs first
// in every task with the task's position in the chain.
func runCopyChain(r *Runtime, n int64, body func(w *Worker, i int64)) {
	var exec ExecFn
	exec = func(w *Worker, tk *Task) {
		i := int64(tk.Key())
		body(w, i)
		if c := tk.Input(0); c != nil {
			c.Release(w)
		}
		if i+1 < n {
			nt := w.NewTask()
			nt.Exec = exec
			nt.SetKey(w, uint64(i+1))
			nt.SetNumInputs(1)
			nt.SetInput(0, w.NewCopy(i))
			w.Discovered()
			if i%2 != 0 || !w.TryInline(nt) {
				w.Schedule(nt)
			}
		}
		w.Completed()
		w.FreeTask(tk)
	}
	seedAndWait(r, exec)
}

// runFanout runs a binary tree of the given depth on r. The two children of
// a task share one copy, so whichever worker runs the later child frees a
// copy another worker obtained. body runs first in every task.
func runFanout(r *Runtime, depth uint64, body func()) {
	var exec ExecFn
	exec = func(w *Worker, tk *Task) {
		body()
		if c := tk.Input(0); c != nil {
			c.Release(w)
		}
		if d := tk.Key(); d < depth {
			c := w.NewCopy(d)
			c.Retain(w)
			for k := 0; k < 2; k++ {
				nt := w.NewTask()
				nt.Exec = exec
				nt.SetKey(w, d+1)
				nt.SetNumInputs(1)
				nt.SetInput(0, c)
				w.Discovered()
				w.Schedule(nt)
			}
		}
		w.Completed()
		w.FreeTask(tk)
	}
	seedAndWait(r, exec)
}

func TestStatsExactAfterWait(t *testing.T) {
	const n = 1000 // not a multiple of statFlushTasks
	cfg := func(workers int) Config {
		return Config{Workers: workers, UsePools: true, ThreadLocalTermDet: true}.Normalize()
	}
	t.Run("chain/1worker", func(t *testing.T) {
		r := New(cfg(1))
		var bodies int64
		runCopyChain(r, n, func(*Worker, int64) { bodies++ })
		checkExactStats(t, r, bodies)
		if bodies != n {
			t.Fatalf("ran %d bodies, want %d", bodies, n)
		}
		if got, _ := r.TaskBalance(); got != n {
			t.Errorf("TasksGot = %d, want %d", got, n)
		}
		if got, _ := r.CopyBalance(); got != n-1 {
			t.Errorf("CopiesGot = %d, want %d", got, n-1)
		}
	})
	t.Run("chain/1worker/inline", func(t *testing.T) {
		c := cfg(1)
		c.InlineTasks = true
		r := New(c)
		var bodies int64
		runCopyChain(r, n, func(*Worker, int64) { bodies++ })
		checkExactStats(t, r, bodies)
		if in := r.Workers()[0].Stats.Inlined.Load(); in == 0 || in == bodies {
			t.Errorf("Inlined = %d of %d, want some but not all", in, bodies)
		}
	})
	t.Run("fanout/2workers", func(t *testing.T) {
		const depth = 12
		r := New(cfg(2))
		var bodies atomic.Int64
		runFanout(r, depth, func() { bodies.Add(1) })
		if want := int64(1)<<(depth+1) - 1; bodies.Load() != want {
			t.Fatalf("ran %d bodies, want %d", bodies.Load(), want)
		}
		checkExactStats(t, r, bodies.Load())
	})
	t.Run("abort", func(t *testing.T) {
		// Abort mid-chain: the successor already scheduled is discarded.
		r := New(cfg(2))
		var bodies atomic.Int64
		runCopyChain(r, n, func(_ *Worker, i int64) {
			bodies.Add(1)
			if i == 300 {
				r.Abort(errors.New("stop"))
			}
		})
		var discarded int64
		for _, w := range r.Workers() {
			discarded += w.Stats.Discarded.Load()
		}
		if bodies.Load() != 301 || discarded != 1 {
			t.Fatalf("ran %d bodies and discarded %d tasks, want 301 and 1", bodies.Load(), discarded)
		}
		checkExactStats(t, r, bodies.Load())
	})
	t.Run("panic", func(t *testing.T) {
		// A panicking body is still counted as run; the runtime frees the
		// task and its input copy. Task 301 runs inline inside task 300.
		c := cfg(2)
		c.InlineTasks = true
		r := New(c)
		var bodies atomic.Int64
		runCopyChain(r, n, func(_ *Worker, i int64) {
			bodies.Add(1)
			if i == 301 {
				panic("body fails")
			}
		})
		var te *TaskError
		if !errors.As(r.Err(), &te) {
			t.Fatalf("Err() = %v, want a *TaskError", r.Err())
		}
		if bodies.Load() != 302 {
			t.Fatalf("ran %d bodies, want 302", bodies.Load())
		}
		checkExactStats(t, r, bodies.Load())
	})
}

// TestStatsMidRunLag bounds how stale Runtime.Stats is while tasks run: a
// worker publishes its counts every statFlushTasks tasks, so the executed
// count lags the bodies finished by less than statFlushTasks per worker.
func TestStatsMidRunLag(t *testing.T) {
	cfg := func(workers int) Config {
		return Config{Workers: workers, UsePools: true, ThreadLocalTermDet: true}.Normalize()
	}
	t.Run("1worker", func(t *testing.T) {
		// One worker never idles inside a chain, so the lag is exactly the
		// number of tasks run since the last flush.
		r := New(cfg(1))
		runCopyChain(r, 1000, func(_ *Worker, i int64) {
			if exec, _, _ := r.Stats(); i-exec != i%statFlushTasks {
				t.Errorf("task %d: Stats executed %d, want %d", i, exec, i-i%statFlushTasks)
			}
		})
	})
	t.Run("2workers", func(t *testing.T) {
		const workers = 2
		r := New(cfg(workers))
		var finished, maxLag atomic.Int64
		runFanout(r, 13, func() {
			f := finished.Load() // before Stats: a later read only shrinks the lag
			exec, _, _ := r.Stats()
			for lag := f - exec; ; {
				if m := maxLag.Load(); lag <= m || maxLag.CompareAndSwap(m, lag) {
					break
				}
			}
			finished.Add(1)
		})
		if lag := maxLag.Load(); lag >= statFlushTasks*workers {
			t.Fatalf("Stats lagged %d tasks, want < %d", lag, statFlushTasks*workers)
		}
	})
}
