package hashtable

import (
	"sort"
	"testing"
)

// checkOnly asserts that tb holds exactly the keys want, through the locked
// lookup, the lock-free lookup and the Keys snapshot, and that none of the
// keys gone is found.
func checkOnly(t *testing.T, tb *Table, want, gone []uint64) {
	t.Helper()
	for _, k := range want {
		if e := tb.Find(0, k); e == nil || e.Key() != k {
			t.Errorf("Find(%d) = %v, want the entry", k, e)
		}
		if e, ok := tb.FindFast(k); !ok || e == nil || e.Key() != k {
			t.Errorf("FindFast(%d) = %v, %v, want the entry", k, e, ok)
		}
	}
	for _, k := range gone {
		if e := tb.Find(0, k); e != nil {
			t.Errorf("Find(%d) found a recycled entry (now key %d)", k, e.Key())
		}
		if e, ok := tb.FindFast(k); !ok || e != nil {
			t.Errorf("FindFast(%d) = %v, %v, want an authoritative miss", k, e, ok)
		}
	}
	keys := tb.Keys(0)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	exp := append([]uint64(nil), want...)
	sort.Slice(exp, func(i, j int) bool { return exp[i] < exp[j] })
	if len(keys) != len(exp) {
		t.Fatalf("table holds keys %v, want %v", keys, exp)
	}
	for i := range keys {
		if keys[i] != exp[i] {
			t.Fatalf("table holds keys %v, want %v", keys, exp)
		}
	}
}

// TestEntryRecycleAfterRemove pushes an entry through the pool-recycling
// cycle a task goes through — insert, remove, Reset, SetKey with a new key,
// re-insert — in a one-bucket table, so a stale chain link or key would
// show up in the walk of its neighbours.
func TestEntryRecycleAfterRemove(t *testing.T) {
	tb := New(Options{InitialSize: 1, HighWaterMark: 64})
	a, b, c := ent(1, "a"), ent(2, "b"), ent(3, "c")
	for _, e := range []*Entry{a, b, c} {
		if !tb.Insert(0, e) {
			t.Fatalf("insert %d failed", e.Key())
		}
	}
	// b sits mid-chain (c -> b -> a): removing it must leave its link clear.
	if tb.Remove(0, 2) != b {
		t.Fatal("remove 2 did not return its entry")
	}
	b.Reset()
	if b.Val != nil || b.next.Load() != nil {
		t.Fatal("Reset left Val or the chain link set")
	}
	b.SetKey(20)
	b.Val = "b2"
	if !tb.Insert(0, b) {
		t.Fatal("re-insert under key 20 failed")
	}
	checkOnly(t, tb, []uint64{1, 3, 20}, []uint64{2})
	if e := tb.Find(0, 20); e.Val != "b2" {
		t.Fatalf("key 20 carries %v, want b2", e.Val)
	}

	// An entry that still carries a link (never removed through the table)
	// gets it cleared by Reset.
	e := ent(7, nil)
	e.next.Store(a)
	e.Reset()
	if e.next.Load() != nil {
		t.Fatal("Reset kept a non-nil chain link")
	}
}

// TestEntryRecycleAfterDrain does the same for entries returned by Drain,
// the abort sweeper's path.
func TestEntryRecycleAfterDrain(t *testing.T) {
	tb := New(Options{InitialSize: 1, HighWaterMark: 64})
	var es []*Entry
	var old []uint64
	for k := uint64(1); k <= 5; k++ {
		es = append(es, ent(k, int(k)))
		old = append(old, k)
		tb.Insert(0, es[len(es)-1])
	}
	drained := tb.Drain(0)
	if len(drained) != len(es) || tb.Len() != 0 {
		t.Fatalf("Drain returned %d entries, left Len %d", len(drained), tb.Len())
	}
	var fresh []uint64
	for i, e := range drained {
		e.Reset()
		k := uint64(100 + i)
		e.SetKey(k)
		fresh = append(fresh, k)
		if !tb.Insert(0, e) {
			t.Fatalf("re-insert under key %d failed", k)
		}
	}
	checkOnly(t, tb, fresh, old)
}
