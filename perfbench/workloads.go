package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"

	"gottg/internal/mra"
	"gottg/internal/taskbench"
	"gottg/ttg"
)

// workload is one set of inputs the benchmark runs. prepare turns a seed
// into an instance: the seeded inputs, their sequential reference, and a
// constructor for one rep's graphs.
type workload struct {
	name    string
	why     string
	prepare func(seed int64, sz size) *instance
}

// size selects how much work one rep does.
type size int

const (
	sizeFull   size = iota // end-to-end runs
	sizeTraced             // traced runs: causal spans of every task stay in memory
	sizeSmall              // the smoke test
)

// pick returns the value for sz.
func (sz size) pick(full, traced, small int) int {
	return [...]int{full, traced, small}[sz]
}

// instance is one workload at one seed and size.
type instance struct {
	tasks int64 // tasks every rep must execute

	// build constructs the world and graphs of one rep up to, but not
	// including, MakeExecutable. traced switches on the instrumentation
	// that already exists in the program (metrics registries, atomic
	// counting and causal tracing).
	build func(traced bool) *rep

	// Sizes the layer probes run at: the workload's own key stream, its
	// activation payload size and its activations per wire frame.
	probeKeys    []uint64
	payloadBytes int
	actsPerFrame int
	probeWorkers int

	reference string // what every rep is checked against
}

// rep is one execution: graphs ready for MakeExecutable, how to seed them,
// and how to check their outputs against the sequential reference.
type rep struct {
	world  *ttg.World // nil in shared memory
	graphs []*ttg.Graph
	seed   func()
	verify func() error
}

// tasksRun sums the tasks the rep's runtimes executed, inlined included.
func (r *rep) tasksRun() int64 {
	var n int64
	for _, g := range r.graphs {
		for _, w := range g.Runtime().Workers() {
			n += w.Stats.Executed.Load() + w.Stats.Inlined.Load()
		}
	}
	return n
}

var workloads = []workload{
	{
		name:    "chain",
		why:     "Fig. 5 single-flow move chain on one worker: only the per-task path (pool, reset, HT bypass, scheduler, termdet) runs",
		prepare: prepareChain,
	},
	{
		name:    "stencil",
		why:     "Task-Bench stencil_1d, 2 workers: 3-input aggregation through the discovery hashtable and copies across workers, comm idle",
		prepare: prepareStencil,
	},
	{
		name:    "dist_stencil",
		why:     "the same stencil on 2 in-process ranks with a cyclic mapper: 2/3 of activations cross the wire (batching, codec, termination waves)",
		prepare: prepareDistStencil,
	},
	{
		name:    "mra",
		why:     "MRA mini-app (k=6, tol=1e-4): ~50us linalg tasks with 8-way fan-in of real-sized copies; runtime per-task costs should not show",
		prepare: prepareMRA,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is the paper's optimized runtime. Workers are not pinned to OS
// threads, as in the repository's own harnesses on small hosts.
func config(workers int, traced bool) ttg.Config {
	cfg := ttg.OptimizedConfig(workers)
	cfg.PinWorkers = false
	cfg.CountAtomics = traced
	return cfg
}

// instrument switches on the graph-level observability of a traced rep.
func instrument(g *ttg.Graph, traced bool) {
	if traced {
		g.EnableMetrics()
		g.EnableCausalTracing()
	}
}

// ---- chain ----

func prepareChain(seed int64, sz size) *instance {
	n := uint64(sz.pick(800_000, 50_000, 2_000))
	payload := rand.New(rand.NewSource(seed)).Int63()
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = uint64(i)
	}
	return &instance{
		tasks: int64(n),
		build: func(traced bool) *rep {
			g := ttg.New(config(1, traced))
			instrument(g, traced)
			var lastKey atomic.Uint64
			var lastVal atomic.Int64
			e := ttg.NewEdge("chain")
			link := g.NewTT("link", 1, 1, func(tc ttg.TaskContext) {
				k := tc.Key()
				if k == n-1 {
					lastKey.Store(k)
					lastVal.Store(*tc.Value(0).(*int64))
					return
				}
				tc.SendInput(0, k+1, 0)
			})
			link.Out(0, e)
			e.To(link, 0)
			r := &rep{graphs: []*ttg.Graph{g}}
			r.seed = func() {
				v := payload
				g.Invoke(link, 0, &v)
			}
			r.verify = func() error {
				if got := r.tasksRun(); got != int64(n) {
					return fmt.Errorf("chain ran %d tasks, want %d", got, n)
				}
				if k, v := lastKey.Load(), lastVal.Load(); k != n-1 || v != payload {
					return fmt.Errorf("chain ended at key %d with payload %d, want key %d payload %d", k, v, n-1, payload)
				}
				return nil
			}
			return r
		},
		probeKeys:    keys,
		payloadBytes: 8,
		actsPerFrame: 1,
		probeWorkers: 1,
		reference:    "task count and final key/payload",
	}
}

// ---- Task-Bench stencil_1d ----

// pointVal is the datum flowing between stencil point tasks: the producer
// point and its value, so consumers order their inputs by origin. Two
// fixed-width scalars, so it rides the flat binary codec on the wire.
type pointVal struct {
	P int64
	V float64
}

func init() { ttg.RegisterFlatPayload(&pointVal{}) }

const (
	stencilWidth = 8
	stencilFlops = 100
)

func stencilSpec(steps int) taskbench.Spec {
	return taskbench.Spec{Pattern: taskbench.Stencil1D, Width: stencilWidth, Steps: steps, Flops: stencilFlops}
}

// stencilInputs draws the t=0 value of every point from the seed.
func stencilInputs(seed int64, width int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x0 := make([]float64, width)
	for p := range x0 {
		x0[p] = rng.Float64()
	}
	return x0
}

// stencilReference is taskbench.Spec.Reference with seeded t=0 inputs: the
// first-step task of point p consumes x0[p] as its only dependency value. With
// every x0[p] == 0 it equals Spec.Reference bit for bit.
func stencilReference(s taskbench.Spec, x0 []float64) float64 {
	cur := make([]float64, s.Width)
	next := make([]float64, s.Width)
	for p := range cur {
		cur[p] = s.Value(0, p, []float64{x0[p]})
	}
	var depVals []float64
	for t := 1; t < s.Steps; t++ {
		for p := 0; p < s.Width; p++ {
			depVals = depVals[:0]
			for _, q := range s.Deps(t, p) {
				depVals = append(depVals, cur[q])
			}
			next[p] = s.Value(t, p, depVals)
		}
		cur, next = next, cur
	}
	sum := 0.0
	for _, v := range cur {
		sum += v
	}
	return sum
}

// stencilKeys is the key stream of the first tasks, in timestep order.
func stencilKeys(s taskbench.Spec, n int) []uint64 {
	keys := make([]uint64, 0, n)
	for t := 0; t < s.Steps && len(keys) < n; t++ {
		for p := 0; p < s.Width && len(keys) < n; p++ {
			keys = append(keys, ttg.Pack2(uint32(t), uint32(p)))
		}
	}
	return keys
}

// buildPoint wires the Task-Bench point TT (paper Listing 1): an aggregator
// input sized by the spec's dependencies, inputs ordered by origin, the
// spec's kernel, and one send per consumer. Last-step values land in last.
func buildPoint(g *ttg.Graph, s taskbench.Spec, mapper func(uint64) int, last []float64) *ttg.TT {
	e := ttg.NewEdge("point")
	point := g.NewTT("Point", 1, 1, func(tc ttg.TaskContext) {
		t, p := ttg.Unpack2(tc.Key())
		agg := tc.Aggregate(0)
		var buf [5]pointVal
		vals := buf[:0]
		for i := 0; i < agg.Len(); i++ {
			vals = append(vals, *agg.Value(i).(*pointVal))
		}
		for i := 1; i < len(vals); i++ {
			for j := i; j > 0 && vals[j-1].P > vals[j].P; j-- {
				vals[j-1], vals[j] = vals[j], vals[j-1]
			}
		}
		var dv [5]float64
		deps := dv[:0]
		for _, v := range vals {
			deps = append(deps, v.V)
		}
		v := s.Value(int(t), int(p), deps)
		if int(t) == s.Steps-1 {
			last[p] = v
			return
		}
		out := &pointVal{P: int64(p), V: v}
		for _, q := range s.RDeps(int(t), int(p)) {
			tc.Send(0, ttg.Pack2(t+1, uint32(q)), out)
		}
	}).WithAggregator(0, func(key uint64) int {
		t, p := ttg.Unpack2(key)
		if t == 0 {
			return 1
		}
		return len(s.Deps(int(t), int(p)))
	})
	if mapper != nil {
		point.WithMapper(mapper)
	}
	point.Out(0, e)
	e.To(point, 0)
	return point
}

func prepareStencil(seed int64, sz size) *instance {
	return stencilInstance(seed, 1, 2, sz.pick(8_000, 2_000, 40))
}

func prepareDistStencil(seed int64, sz size) *instance {
	return stencilInstance(seed, 2, 1, sz.pick(9_000, 1_500, 40))
}

// stencilInstance runs stencil_1d over `ranks` in-process ranks of `workers`
// workers each; with more than one rank, points map to ranks cyclically so
// both neighbours of a point live on the other rank.
func stencilInstance(seed int64, ranks, workers, steps int) *instance {
	s := stencilSpec(steps)
	x0 := stencilInputs(seed, s.Width)
	want := stencilReference(s, x0)
	// Traced dist_stencil reps carry about 11 activations per frame; the
	// shared-memory stencil sends none, so its comm probe sends them singly.
	actsPerFrame := 1
	if ranks > 1 {
		actsPerFrame = 11
	}
	return &instance{
		tasks: int64(s.TotalTasks()),
		build: func(traced bool) *rep {
			last := make([]float64, s.Width)
			r := &rep{}
			var mapper func(uint64) int
			if ranks > 1 {
				r.world = ttg.NewWorld(ranks)
				if traced {
					r.world.EnableMetrics()
				}
				mapper = func(key uint64) int {
					_, p := ttg.Unpack2(key)
					return int(p) % ranks
				}
			}
			points := make([]*ttg.TT, ranks)
			for i := 0; i < ranks; i++ {
				var g *ttg.Graph
				if r.world != nil {
					g = ttg.NewDistributed(config(workers, traced), r.world.Proc(i))
				} else {
					g = ttg.New(config(workers, traced))
				}
				instrument(g, traced)
				points[i] = buildPoint(g, s, mapper, last)
				r.graphs = append(r.graphs, g)
			}
			r.seed = func() {
				// SPMD: every rank invokes every seed and keeps the ones
				// it owns.
				for i, g := range r.graphs {
					for p := 0; p < s.Width; p++ {
						g.Invoke(points[i], ttg.Pack2(0, uint32(p)), &pointVal{P: int64(p), V: x0[p]})
					}
				}
			}
			r.verify = func() error {
				if got := r.tasksRun(); got != int64(s.TotalTasks()) {
					return fmt.Errorf("stencil ran %d tasks, want %d", got, s.TotalTasks())
				}
				sum := 0.0
				for _, v := range last {
					sum += v
				}
				if math.Float64bits(sum) != math.Float64bits(want) {
					return fmt.Errorf("stencil checksum %v, want %v (bit-identical)", sum, want)
				}
				return nil
			}
			return r
		},
		probeKeys:    stencilKeys(s, 4096),
		payloadBytes: 16,
		actsPerFrame: actsPerFrame,
		probeWorkers: workers,
		reference:    "bit-identical checksum of a sequential sweep",
	}
}

// ---- MRA ----

const (
	mraK   = 6
	mraTol = 1e-4
)

// mraProblem is the §V-E problem at the cmd/mra defaults, with the Gaussian
// centres drawn from the seed inside [-5,5]^3.
func mraProblem(seed int64, nf int) *mra.Problem {
	p := mra.DefaultProblem(nf)
	p.K = mraK
	p.Tol = mraTol
	rng := rand.New(rand.NewSource(seed))
	for i := range p.Funcs {
		for d := range p.Funcs[i].Center {
			p.Funcs[i].Center[d] = rng.Float64()*10 - 5
		}
	}
	return p
}

func prepareMRA(seed int64, sz size) *instance {
	p := mraProblem(seed, sz.pick(8, 6, 2))
	b := mra.NewBasis(p.K)
	seq := &mra.Forest{}
	for fi := range p.Funcs {
		p.ProjectSeq(b, seq, fi)
		p.CompressSeq(b, seq, fi)
	}
	want := seq.Stats()
	// Project runs once per interior node, compress once per interior node
	// whose children refined further (interior - leaves/8), and reconstruct
	// once per node of the tree.
	tasks := int64(3*want.Interior - want.Leaves/8 + want.Leaves)
	var keys []uint64
	seq.Range(func(key uint64, _ *mra.Node) bool {
		keys = append(keys, key)
		return true
	})
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return &instance{
		tasks: tasks,
		build: func(traced bool) *rep {
			g := ttg.New(config(2, traced))
			instrument(g, traced)
			fo := &mra.Forest{}
			m := mra.NewGraph(g, p, b, fo)
			r := &rep{graphs: []*ttg.Graph{g}, seed: m.Seed}
			r.verify = func() error {
				if got := r.tasksRun(); got != tasks {
					return fmt.Errorf("mra ran %d tasks, want %d", got, tasks)
				}
				st := fo.Stats()
				if st.Leaves != want.Leaves || st.Interior != want.Interior || st.MaxDepth != want.MaxDepth {
					return fmt.Errorf("mra tree %+v, sequential %+v", st, want)
				}
				if math.Abs(st.SNorm2-want.SNorm2) > 1e-9*(1+want.SNorm2) {
					return fmt.Errorf("mra leaf norms %v, sequential %v", st.SNorm2, want.SNorm2)
				}
				return verifyReconstruction(fo)
			}
			return r
		},
		probeKeys:    keys,
		payloadBytes: 8 + 8*p.K*p.K*p.K,
		actsPerFrame: 1,
		probeWorkers: 2,
		reference:    "ProjectSeq/CompressSeq tree stats and reconstruct∘compress identity on every leaf",
	}
}

// verifyReconstruction checks that reconstruction reproduced every projected
// leaf (the check cmd/mra -verify makes).
func verifyReconstruction(fo *mra.Forest) error {
	var err error
	fo.Range(func(key uint64, nd *mra.Node) bool {
		if !nd.Leaf {
			return true
		}
		if !nd.HasR {
			err = fmt.Errorf("mra leaf %x never reconstructed", key)
			return false
		}
		for i := range nd.S.Data {
			if math.Abs(nd.S.Data[i]-nd.R.Data[i]) > 1e-9 {
				err = fmt.Errorf("mra leaf %x coeff %d: %v != %v", key, i, nd.S.Data[i], nd.R.Data[i])
				return false
			}
		}
		return true
	})
	return err
}
