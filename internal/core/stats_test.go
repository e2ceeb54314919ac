package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"gottg/internal/comm"
)

// ranTotal sums Executed+Inlined over the graphs' executing workers.
func ranTotal(gs ...*Graph) int64 {
	var n int64
	for _, g := range gs {
		for _, w := range g.Runtime().Workers() {
			n += w.Stats.Executed.Load() + w.Stats.Inlined.Load()
		}
	}
	return n
}

// checkExactStats asserts the post-Wait invariants of the buffered per-task
// statistics on every graph: each body that ran is counted once as executed
// or inlined, task and copy objects balance, and the creation counts of
// tts (when given) add up to the tasks created.
func checkExactStats(t *testing.T, bodies, created int64, tts []*TT, gs ...*Graph) {
	t.Helper()
	if got := ranTotal(gs...); got != bodies {
		t.Errorf("Executed+Inlined = %d, want %d bodies run", got, bodies)
	}
	if tts != nil {
		var c int64
		for _, tt := range tts {
			c += tt.TasksCreated()
		}
		if c != created {
			t.Errorf("TasksCreated = %d, want %d", c, created)
		}
	}
	for _, g := range gs {
		checkBalances(t, g)
	}
}

// buildMoveChain wires the Fig. 5 single-flow chain: task k moves its input
// to task k+1 until key n-1. stop, when non-nil, runs first in every body.
func buildMoveChain(g *Graph, n uint64, bodies *atomic.Int64, stop func(tc TaskContext)) *TT {
	e := NewEdge("chain")
	link := g.NewTT("link", 1, 1, func(tc TaskContext) {
		bodies.Add(1)
		if stop != nil {
			stop(tc)
		}
		if k := tc.Key(); k+1 < n {
			tc.SendInput(0, k+1, 0)
		}
	})
	link.Out(0, e)
	e.To(link, 0)
	return link
}

// Stencil dimensions: point (s, x) has key s*stW+x and aggregates the
// values of x-1, x and x+1 at step s-1.
const stW, stSteps = 8, 40

// buildStencil wires a 1-D stencil through an aggregator terminal. With
// ranks > 1, point x is owned by rank x%ranks. stop, when non-nil, runs
// first in every body.
func buildStencil(g *Graph, bodies *atomic.Int64, ranks int, stop func(tc TaskContext)) (pt *TT, seed func()) {
	e := NewEdge("next")
	pt = g.NewTT("pt", 1, 1, func(tc TaskContext) {
		bodies.Add(1)
		if stop != nil {
			stop(tc)
		}
		k := tc.Key()
		s, x := k/stW, int(k%stW)
		sum := 0
		for _, v := range tc.Aggregate(0).Values(nil) {
			sum += v.(int)
		}
		if s+1 == stSteps {
			return
		}
		for nx := x - 1; nx <= x+1; nx++ {
			if nx >= 0 && nx < stW {
				tc.Send(0, (s+1)*stW+uint64(nx), sum%1000)
			}
		}
	}).WithAggregator(0, func(k uint64) int {
		if k < stW {
			return 1
		}
		x, n := k%stW, 3
		if x == 0 || x == stW-1 {
			n--
		}
		return n
	})
	if ranks > 1 {
		pt.WithMapper(func(k uint64) int { return int(k%stW) % ranks })
	}
	pt.Out(0, e)
	e.To(pt, 0)
	return pt, func() {
		for x := uint64(0); x < stW; x++ {
			g.Invoke(pt, x, int(x))
		}
	}
}

func TestStatsExactAfterWait(t *testing.T) {
	const n = 1000 // not a multiple of the workers' flush interval
	t.Run("chain/1worker", func(t *testing.T) {
		g := New(testCfg(1))
		var bodies atomic.Int64
		link := buildMoveChain(g, n, &bodies, nil)
		g.MakeExecutable()
		g.Invoke(link, 0, 7)
		if err := g.Wait(); err != nil {
			t.Fatal(err)
		}
		if bodies.Load() != n {
			t.Fatalf("ran %d bodies, want %d", bodies.Load(), n)
		}
		checkExactStats(t, n, n, []*TT{link}, g)
	})
	t.Run("pingpong/1worker", func(t *testing.T) {
		// Two TTs alternate on one worker, so every creation switches the
		// counter the worker tallies into.
		g := New(testCfg(1))
		var bodies atomic.Int64
		toA, toB := NewEdge("toA"), NewEdge("toB")
		step := func(tc TaskContext) {
			bodies.Add(1)
			if k := tc.Key(); k+1 < n {
				tc.SendInput(0, k+1, 0)
			}
		}
		a := g.NewTT("a", 1, 1, step)
		b := g.NewTT("b", 1, 1, step)
		a.Out(0, toB)
		b.Out(0, toA)
		toB.To(b, 0)
		toA.To(a, 0)
		g.MakeExecutable()
		g.Invoke(a, 0, 7)
		if err := g.Wait(); err != nil {
			t.Fatal(err)
		}
		checkExactStats(t, n, n, []*TT{a, b}, g)
		if a.TasksCreated() != n/2 {
			t.Errorf("a created %d tasks, want %d", a.TasksCreated(), n/2)
		}
	})
	t.Run("stencil/2workers", func(t *testing.T) {
		g := New(testCfg(2))
		var bodies atomic.Int64
		pt, seed := buildStencil(g, &bodies, 1, nil)
		g.MakeExecutable()
		seed()
		if err := g.Wait(); err != nil {
			t.Fatal(err)
		}
		if bodies.Load() != stW*stSteps {
			t.Fatalf("ran %d bodies, want %d", bodies.Load(), stW*stSteps)
		}
		checkExactStats(t, stW*stSteps, stW*stSteps, []*TT{pt}, g)
	})
	t.Run("abort/chain", func(t *testing.T) {
		g := New(testCfg(2))
		var bodies atomic.Int64
		link := buildMoveChain(g, n, &bodies, func(tc TaskContext) {
			if tc.Key() == 300 {
				tc.Abort(errors.New("stop"))
			}
		})
		g.MakeExecutable()
		g.Invoke(link, 0, 7)
		if err := g.Wait(); err == nil {
			t.Fatal("Wait() == nil after Abort")
		}
		if bodies.Load() != 301 {
			t.Fatalf("ran %d bodies, want 301", bodies.Load())
		}
		// The send that follows the abort is dropped: no task 301.
		checkExactStats(t, 301, 301, []*TT{link}, g)
	})
	t.Run("abort/stencil", func(t *testing.T) {
		// An abort mid-stencil leaves tasks queued (discarded by the drain)
		// and tabled (freed by the sweeper); how many is timing-dependent,
		// so only the invariants are checked.
		g := New(testCfg(2))
		var bodies atomic.Int64
		var once sync.Once
		pt, seed := buildStencil(g, &bodies, 1, func(tc TaskContext) {
			if tc.Key() >= 10*stW {
				once.Do(func() { tc.Abort(errors.New("stop")) })
			}
		})
		g.MakeExecutable()
		seed()
		if err := g.Wait(); err == nil {
			t.Fatal("Wait() == nil after Abort")
		}
		checkExactStats(t, bodies.Load(), 0, nil, g)
		if c := pt.TasksCreated(); c < bodies.Load() {
			t.Errorf("TasksCreated = %d, below the %d bodies run", c, bodies.Load())
		}
	})
	t.Run("panic", func(t *testing.T) {
		g := New(testCfg(2))
		var bodies atomic.Int64
		link := buildMoveChain(g, n, &bodies, func(tc TaskContext) {
			if tc.Key() == 300 {
				panic("body fails")
			}
		})
		g.MakeExecutable()
		g.Invoke(link, 0, 7)
		if err := g.Wait(); err == nil {
			t.Fatal("Wait() == nil after a panic")
		}
		if bodies.Load() != 301 {
			t.Fatalf("ran %d bodies, want 301", bodies.Load())
		}
		checkExactStats(t, 301, 301, []*TT{link}, g)
	})
	t.Run("stencil/2ranks", func(t *testing.T) {
		// Point x lives on rank x%2, so every point's neighbours are remote:
		// the comm progress thread's service worker obtains the arriving
		// copies and creates the tasks for them.
		const ranks = 2
		world := comm.NewWorld(ranks)
		gs := make([]*Graph, ranks)
		tts := make([]*TT, ranks)
		seeds := make([]func(), ranks)
		var bodies atomic.Int64
		for r := range gs {
			gs[r] = NewDistributed(testCfg(1), world.Proc(r))
			tts[r], seeds[r] = buildStencil(gs[r], &bodies, ranks, nil)
		}
		var wg sync.WaitGroup
		errs := make([]error, ranks)
		for r := range gs {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				gs[r].MakeExecutable()
				seeds[r]()
				errs[r] = gs[r].Wait()
			}(r)
		}
		wg.Wait()
		world.Shutdown()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		if bodies.Load() != stW*stSteps {
			t.Fatalf("ran %d bodies, want %d", bodies.Load(), stW*stSteps)
		}
		checkExactStats(t, stW*stSteps, stW*stSteps, tts, gs...)
		var commCopies int64
		for _, g := range gs {
			commCopies += g.Runtime().ServiceWorker(1).Stats.CopiesGot.Load()
		}
		if commCopies == 0 {
			t.Error("no copy was obtained by a comm service worker")
		}
	})
}
