package main

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"gottg/ttg"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string

	// small shrinks every workload to a few thousand tasks and fixes the
	// rep counts, for the smoke test.
	small bool
}

type result struct {
	Attempted int
	Failed    int
	Metrics   map[string]float64
	Record    runRecord
}

func (r *result) failedRatio() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

const (
	warmupReps = 2
	minReps    = 5
	maxReps    = 100_000

	// A rep is bounded by waitTimeout; a graph that has not terminated by
	// then is aborted and given abortGrace to drain.
	waitTimeout = 20 * time.Second
	abortGrace  = 5 * time.Second
)

// repStats is what one rep measured.
type repStats struct {
	setup   time.Duration // world and graph construction through MakeExecutable
	wall    time.Duration // first seed to termination
	cpu     int64         // process user+sys CPU ns over the same interval
	mallocs uint64        // heap allocations over the whole rep
	bytes   uint64        // heap bytes allocated over the whole rep
	tasks   int64
	layer   *layerSample // traced reps only
}

// bench runs the reps of one workload instance.
type bench struct {
	inst *instance
	tr   *tracer
	reps int
}

// errStuck marks a rep whose graphs did not terminate even after Abort; the
// run stops there, since later reps would share the process with it.
var errStuck = errors.New("graph still running after abort")

// rep runs one rep and returns its measurements; a non-nil error means the
// rep failed (errored, timed out, or produced a wrong result).
func (b *bench) rep(traced bool) (repStats, error) {
	idx := b.reps
	b.reps++
	tr := b.tr
	var st repStats
	var ms0, ms1 runtime.MemStats
	// Start every rep from a collected heap, as testing.B does, so that
	// where the collector's cycles fall is the same from rep to rep.
	runtime.GC()
	root := tr.begin("rep", idx, 0)
	defer tr.end(root)
	runtime.ReadMemStats(&ms0)

	id := tr.begin("build", idx, root)
	r := b.inst.build(traced)
	st.setup = tr.end(id)
	id = tr.begin("make_executable", idx, root)
	for _, g := range r.graphs {
		g.MakeExecutable()
	}
	st.setup += tr.end(id)

	cpu0, t0 := cpuTime(), time.Now()
	id = tr.begin("seed", idx, root)
	r.seed()
	tr.end(id)
	wait := tr.begin("wait", idx, root)
	err := waitAll(r.graphs)
	tr.end(wait)
	st.wall, st.cpu = time.Since(t0), cpuTime()-cpu0
	st.tasks = r.tasksRun()
	counts := map[string]float64{"tasks": float64(st.tasks)}
	if traced && err == nil {
		ls, lerr := collectLayer(r, st.tasks)
		if lerr != nil {
			err = lerr
		} else {
			st.layer = &ls
			ls.addCounts(counts)
		}
	}
	tr.setCounts(wait, counts)

	id = tr.begin("verify", idx, root)
	if err == nil {
		err = r.verify()
	}
	tr.end(id)
	id = tr.begin("shutdown", idx, root)
	if r.world != nil {
		r.world.Shutdown()
	}
	tr.end(id)
	runtime.ReadMemStats(&ms1)
	st.mallocs = ms1.Mallocs - ms0.Mallocs
	st.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	return st, err
}

// waitAll waits for every rank's graph concurrently (a distributed graph
// terminates only once every rank has released its seed guard).
func waitAll(gs []*ttg.Graph) error {
	if len(gs) == 1 {
		return waitOne(gs[0])
	}
	errs := make([]error, len(gs))
	var wg sync.WaitGroup
	for i, g := range gs {
		wg.Add(1)
		go func(i int, g *ttg.Graph) {
			defer wg.Done()
			errs[i] = waitOne(g)
		}(i, g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// waitOne bounds a graph's run by waitTimeout, then aborts it.
func waitOne(g *ttg.Graph) error {
	err := g.WaitFor(waitTimeout)
	if err == nil || g.Runtime().Terminated() {
		return err
	}
	g.Abort(err)
	if g.WaitFor(abortGrace) != nil && !g.Runtime().Terminated() {
		return fmt.Errorf("%w: %v", errStuck, err)
	}
	return err
}

// run measures one workload and returns its metrics; it writes the spans
// file before returning. Only a rep that cannot be stopped is an error; a
// failed rep is counted in the result.
func run(opt options, log io.Writer) (*result, error) {
	w, ok := findWorkload(opt.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	trace := 0
	if opt.trace {
		trace = 1
	}
	rec := newRunRecord(w.name, opt.seed, opt.seconds, trace)
	tr := newTracer()
	id := tr.begin("prepare", -1, 0)
	sz := sizeFull
	switch {
	case opt.small:
		sz = sizeSmall
	case opt.trace:
		sz = sizeTraced
	}
	inst := w.prepare(opt.seed, sz)
	tr.end(id)
	rec.TasksPerRep = inst.tasks
	rec.Reference = inst.reference
	rec.WaitTimeoutMs = waitTimeout.Milliseconds()

	b := &bench{inst: inst, tr: tr}
	res := &result{Metrics: make(map[string]float64)}
	var fatal error
	// do runs reps until the deadline passes and at least lo reps ran, or
	// hi reps ran, and returns the measurements of the reps that passed.
	do := func(traced bool, d time.Duration, lo, hi int) []repStats {
		var out []repStats
		deadline := time.Now().Add(d)
		for n := 0; fatal == nil && n < hi && (n < lo || time.Now().Before(deadline)); n++ {
			st, err := b.rep(traced)
			res.Attempted++
			if err != nil {
				res.Failed++
				fmt.Fprintf(log, "# rep %d failed: %v\n", b.reps-1, err)
				if errors.Is(err, errStuck) {
					fatal = err
				}
				continue
			}
			out = append(out, st)
		}
		return out
	}
	seconds := time.Duration(opt.seconds * float64(time.Second))
	lo, hi := minReps, maxReps
	if opt.small {
		seconds, lo, hi = 0, 3, 3
	}
	do(false, 0, warmupReps, warmupReps)
	firstMeasured := b.reps
	if !opt.trace {
		reps := do(false, seconds, lo, hi)
		rec.Reps = len(reps)
		endToEndMetrics(reps, res.Metrics)
	} else {
		// Half the time untraced, for the span self times and the
		// tracing-overhead baseline, then traced reps for the counters.
		plain := do(false, seconds/2, lo, hi)
		firstTraced := b.reps
		traced := do(true, seconds*2/5, 2, 20)
		rec.Reps, rec.TracedReps = len(plain)+len(traced), len(traced)
		layerMetrics(traced, res.Metrics)
		res.Metrics["trace.overhead_ratio"] = ratio(coreNsPerTask(traced), coreNsPerTask(plain))
		self := tr.selfTimes(func(rep int) bool { return rep >= firstMeasured && rep < firstTraced })
		for name, metric := range spanMetrics {
			res.Metrics[metric] = median(self[name])
		}
		id := tr.begin("probes", -1, 0)
		if err := runProbes(inst, opt.seed, opt.small, res.Metrics); err != nil {
			fatal = errors.Join(fatal, err)
		}
		tr.end(id)
	}
	rec.LoadAfter = loadAvg()
	res.Record = rec
	path := filepath.Join(opt.spansDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, opt.seed, trace))
	if err := tr.write(path, rec); err != nil {
		return nil, err
	}
	if fatal != nil {
		return nil, fatal
	}
	return res, nil
}

// endToEndMetrics fills the metrics a user of the runtime sees.
func endToEndMetrics(reps []repStats, m map[string]float64) {
	var wall, setup, mallocs, bytes []float64
	for _, st := range reps {
		n := float64(st.tasks)
		wall = append(wall, float64(st.wall.Nanoseconds())/n)
		setup = append(setup, st.setup.Seconds())
		mallocs = append(mallocs, float64(st.mallocs)/n)
		bytes = append(bytes, float64(st.bytes)/n)
	}
	m["core_ns_per_task"] = coreNsPerTask(reps)
	m["wall_ns_per_task_p50"] = quantile(wall, 0.5)
	m["wall_ns_per_task_p90"] = quantile(wall, 0.9)
	m["setup_s"] = median(setup)
	m["allocs_per_task"] = median(mallocs)
	m["alloc_bytes_per_task"] = median(bytes)
}

// coreNsPerTask is the process CPU time over the reps' timed intervals
// divided by their tasks.
func coreNsPerTask(reps []repStats) float64 {
	var cpu, tasks float64
	for _, st := range reps {
		cpu += float64(st.cpu)
		tasks += float64(st.tasks)
	}
	return ratio(cpu, tasks)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics (0 for no data).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
