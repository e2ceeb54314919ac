package core

import (
	"sync/atomic"
	"testing"
)

// TestBypassChainAtomicCounts pins the exact locked-instruction budget of a
// task on the Fig. 5 single-flow chain (one worker, LLP, thread-local
// termination detection, hash-table bypass, move semantics), by category.
// Per chained task:
//   - Sched 2: the push Swap and the pop Swap of the LLP queue;
//   - Stores 3: SetKey, ArmDeps and the push reattach (the pop finds no
//     remainder to reattach);
//   - TermDet 0 and Pool 0: thread-local counters and owner-private pools.
//
// The seed adds constants: it is created by the main service worker
// (SetKey, ArmDeps and its copy's refcount: 3 Stores, 1 TermDet), enters
// through the unaccounted injector, and is returned to the service worker's
// pools by a CAS each for the task and the copy (Pool 2).
func TestBypassChainAtomicCounts(t *testing.T) {
	for _, n := range []uint64{1000, 1500} {
		cfg := testCfg(1)
		cfg.CountAtomics = true
		g := New(cfg)
		var bodies atomic.Int64
		link := buildMoveChain(g, n, &bodies, nil)
		g.MakeExecutable()
		g.Invoke(link, 0, 7)
		if err := g.Wait(); err != nil {
			t.Fatal(err)
		}
		a := g.Runtime().Atomics()
		want := struct{ sched, stores, termdet, pool uint64 }{2 * (n - 1), 3*(n-1) + 3, 1, 2}
		if a.Sched != want.sched || a.Stores != want.stores || a.TermDet != want.termdet || a.Pool != want.pool {
			t.Fatalf("n=%d: Sched %d, Stores %d, TermDet %d, Pool %d; want %d, %d, %d, %d",
				n, a.Sched, a.Stores, a.TermDet, a.Pool,
				want.sched, want.stores, want.termdet, want.pool)
		}
		// Stores stay outside the Eq. 1 total.
		if a.Total() != a.Pool+a.Input+a.CopyRef+a.Bucket+a.RWLock+a.Sched+a.TermDet+a.Alloc {
			t.Fatalf("Total %d includes Stores", a.Total())
		}
	}
}
