package rt

import (
	"sync/atomic"
	"testing"
)

// TestCausalTracingRecordsSpans chains tasks with explicit cause plumbing
// (the way core wires it) and checks the recorded events carry span ids,
// lifecycle timestamps, and resolvable causes.
func TestCausalTracingRecordsSpans(t *testing.T) {
	cfg := Config{Workers: 2, ThreadLocalTermDet: true, UsePools: true}.Normalize()
	r := New(cfg)
	r.EnableCausalTracing()
	if !r.CausalTracing() {
		t.Fatal("CausalTracing false after EnableCausalTracing")
	}
	var budget atomic.Int64
	budget.Store(200)
	var exec ExecFn
	exec = func(w *Worker, tk *Task) {
		// Mimic core's ttExecute: the running task's span is the ambient
		// cause for everything it produces.
		w.SetCauseCtx(CauseCtx{SpanID: tk.SpanID(), Rank: 0})
		if budget.Add(-1) > 0 {
			nt := w.NewTask()
			nt.Exec = exec
			nt.TT = named("chain")
			nt.SetKey(w, uint64(budget.Load()))
			nt.AddCause(w.CauseCtx())
			nt.MarkReady()
			w.Discovered()
			w.Schedule(nt)
		}
		w.SetCauseCtx(CauseCtx{})
		w.Completed()
		w.FreeTask(tk)
	}
	r.BeginAction()
	r.Start(false)
	r.BeginAction()
	seed := &Task{Exec: exec, TT: named("chain")} // injected directly: no span
	r.Inject(seed)
	r.EndAction()
	r.WaitDone()

	evs := r.Trace()
	executed, _, _ := r.Stats()
	if int64(len(evs)) != executed {
		t.Fatalf("traced %d events, executed %d tasks", len(evs), executed)
	}
	spans := map[uint64]bool{}
	withSpan, withCause := 0, 0
	for _, e := range evs {
		if e.SpanID == 0 {
			continue // the hand-injected seed
		}
		if spans[e.SpanID] {
			t.Fatalf("span id %#x recorded twice", e.SpanID)
		}
		spans[e.SpanID] = true
		withSpan++
		if e.Discovered.IsZero() {
			t.Fatalf("span %#x has zero Discovered", e.SpanID)
		}
		for _, c := range e.Causes {
			withCause++
			if c.At.IsZero() {
				t.Fatalf("cause on span %#x has zero At", e.SpanID)
			}
			if c.Frame != 0 {
				t.Fatalf("local cause carries frame %#x", c.Frame)
			}
		}
		if len(e.Causes) > 0 && e.Ready.IsZero() {
			t.Fatalf("span %#x has causes but zero Ready", e.SpanID)
		}
	}
	if int64(withSpan) != executed-1 {
		t.Fatalf("%d spans for %d pool-allocated tasks", withSpan, executed-1)
	}
	// Every task but the seed and the seed's direct successor was caused by a
	// span-carrying producer; the successor's producer (the spanless seed)
	// presents the zero CauseCtx, which AddCause drops — roots are expressed
	// by the absence of causes.
	if int64(withCause) != executed-2 {
		t.Fatalf("%d causes recorded, want %d", withCause, executed-2)
	}
}

// TestCausalTracingOffNoSpans checks plain tracing stays span-free: no ids
// allocated, no causal fields populated, pool tasks unchanged.
func TestCausalTracingOffNoSpans(t *testing.T) {
	cfg := Config{Workers: 1, UsePools: true}.Normalize()
	r := New(cfg)
	r.EnableTracing()
	if r.CausalTracing() {
		t.Fatal("CausalTracing true without EnableCausalTracing")
	}
	var budget atomic.Int64
	budget.Store(20)
	var exec ExecFn
	exec = func(w *Worker, tk *Task) {
		if budget.Add(-1) > 0 {
			nt := w.NewTask()
			nt.Exec = exec
			nt.TT = named("chain")
			w.Discovered()
			w.Schedule(nt)
		}
		w.Completed()
		w.FreeTask(tk)
	}
	r.BeginAction()
	r.Start(false)
	r.BeginAction()
	r.Inject(&Task{Exec: exec, TT: named("chain")})
	r.EndAction()
	r.WaitDone()
	for _, e := range r.Trace() {
		if e.SpanID != 0 || len(e.Causes) != 0 || !e.Discovered.IsZero() || !e.Ready.IsZero() {
			t.Fatalf("causal fields populated without causal tracing: %+v", e)
		}
	}
}

func TestEnableCausalTracingAfterStartPanics(t *testing.T) {
	r := New(Config{Workers: 1}.Normalize())
	r.BeginAction()
	r.Start(false)
	defer func() {
		if recover() == nil {
			t.Fatal("EnableCausalTracing after Start did not panic")
		}
		r.EndAction()
		r.WaitDone()
	}()
	r.EnableCausalTracing()
}
