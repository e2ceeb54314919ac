package rt

import (
	"testing"

	"gottg/internal/hashtable"
)

// TestPooledTaskReuse recycles a task that sat in a discovery table with
// one TT, key and dependence count, and reuses it with another: reset
// leaves the key and counter stale on purpose, so the new owner's SetKey
// and ArmDeps must be all that is seen — in the task and in the table.
func TestPooledTaskReuse(t *testing.T) {
	r := New(Config{Workers: 1, UsePools: true, CountAtomics: true}.Normalize())
	w := r.Workers()[0]
	tb := hashtable.New(hashtable.Options{InitialSize: 1})
	ttA, ttB := &namedTT{name: "A"}, &namedTT{name: "B"}

	t1 := w.NewTask()
	t1.TT = ttA
	t1.SetKey(w, 5)
	t1.ArmDeps(w, 3)
	t1.SatisfyDep(w, 1)
	t1.Entry.Val = t1
	tb.Insert(w.HTSlot(), &t1.Entry)
	if tb.Remove(w.HTSlot(), 5) != &t1.Entry {
		t.Fatal("remove did not return the task's entry")
	}
	w.FreeTask(t1)

	t2 := w.NewTask()
	if t2 != t1 {
		t.Fatal("task not recycled through the pool")
	}
	if t2.TT != nil || t2.Exec != nil || t2.Entry.Val != nil || t2.NumInputs() != 0 {
		t.Fatal("reset left frontend state behind")
	}
	t2.TT = ttB
	t2.SetKey(w, 9)
	t2.ArmDeps(w, 1)
	t2.Entry.Val = t2
	if t2.Key() != 9 || t2.Deps() != 1 {
		t.Fatalf("reused task has key %d, deps %d; want 9, 1", t2.Key(), t2.Deps())
	}
	tb.Insert(w.HTSlot(), &t2.Entry)
	if e := tb.Find(w.HTSlot(), 5); e != nil {
		t.Fatal("old key found after reuse")
	}
	if e := tb.Find(w.HTSlot(), 9); e == nil || e.Val.(*Task).TT != ttB {
		t.Fatal("new key not found with the new TT")
	}
	if !t2.SatisfyDep(w, 1) {
		t.Fatal("reused task not eligible after its one dependence")
	}
	// Two tasks armed and keyed: four accounted stores, no RMW among them.
	if a := w.Atomics; a.Stores != 4 || a.Input != 2 {
		t.Fatalf("accounted %d stores and %d input RMWs, want 4 and 2", a.Stores, a.Input)
	}
}
