package main

import (
	"fmt"

	"gottg/internal/bench"
	"gottg/internal/core"
	"gottg/internal/rt"
)

// figModel validates the paper's Eq. 1 atomic-operation model,
// N_A = 4·N_i + 4, by running an instrumented single-thread chain of tasks
// with N_i move-semantics data flows and counting every atomic RMW the
// runtime issues per task, by category.
func figModel(c *ctx) {
	t := bench.NewTable("Eq 1: atomic RMW operations per task (move semantics)",
		"flows (N_i)", "ops/task")
	fmt.Println("# categories: pool, input-counter (N_IP), copy-refs (N_IC), bucket locks (N_ID),")
	fmt.Println("#             rwlock (0 under BRAVO), scheduler (N_S), termdet (0 thread-local);")
	fmt.Println("#             locked stores are listed separately and not in the total")
	const n = 20000
	for flows := 1; flows <= 6; flows++ {
		counts, perTask := eq1Run(flows, n, true)
		t.Add("measured total", float64(flows), perTask)
		t.Add("paper model 4N+4", float64(flows), float64(4*flows+4))
		t.Add("pool", float64(flows), float64(counts.Pool)/n)
		t.Add("input", float64(flows), float64(counts.Input)/n)
		t.Add("copyref", float64(flows), float64(counts.CopyRef)/n)
		t.Add("bucket", float64(flows), float64(counts.Bucket)/n)
		t.Add("rwlock", float64(flows), float64(counts.RWLock)/n)
		t.Add("sched", float64(flows), float64(counts.Sched)/n)
		// Locked stores (XCHG on amd64) are not RMWs and stay out of the
		// Eq. 1 total, but they cost on the same per-task path.
		t.Add("stores (not in total)", float64(flows), float64(counts.Stores)/n)

		// The same chain with the plain reader-writer lock shows the two
		// extra RMWs per hash-table access that BRAVO removes (§IV-D).
		countsPlain, perTaskPlain := eq1Run(flows, n, false)
		t.Add("total (plain rwlock)", float64(flows), perTaskPlain)
		_ = countsPlain
	}
	c.printTable(t)
}

// eq1Run executes a single-worker chain of n tasks with `flows` move-
// semantics flows under atomic-op instrumentation and returns the aggregate
// counts and total ops per task.
func eq1Run(flows, n int, bravo bool) (rt.AtomicCounts, float64) {
	cfg := rt.OptimizedConfig(1)
	cfg.PinWorkers = false
	cfg.CountAtomics = true
	cfg.BiasedRWLock = bravo
	g := core.New(cfg)
	edges := make([]*core.Edge, flows)
	limit := uint64(n)
	pt := g.NewTT("point", flows, flows, func(tc core.TaskContext) {
		k := tc.Key()
		if k >= limit {
			return
		}
		for f := 0; f < flows; f++ {
			tc.SendInput(f, k+1, f)
		}
	})
	for f := 0; f < flows; f++ {
		edges[f] = core.NewEdge("flow")
		pt.Out(f, edges[f])
		edges[f].To(pt, f)
	}
	g.MakeExecutable()
	for f := 0; f < flows; f++ {
		g.InvokeInput(pt, f, 1, f)
	}
	g.Wait()
	counts := g.Runtime().Atomics()
	return counts, float64(counts.Total()) / float64(n)
}
