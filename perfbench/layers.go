package main

import (
	"fmt"

	"gottg/internal/obs/critpath"
	"gottg/internal/rt"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the runtime sees, printed with
// --trace 0. BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"core_ns_per_task", "ns"},
	{"wall_ns_per_task_p50", "ns"},
	{"wall_ns_per_task_p90", "ns"},
	{"setup_s", "s"},
	{"allocs_per_task", "count"},
	{"alloc_bytes_per_task", "B"},
}

// perLayer are the metrics of single layers, printed with --trace 1. The
// comment above each group names the end-to-end metric and workload it
// should move.
var perLayer = []metricDef{
	// rt: core_ns_per_task and wall_ns_per_task_p50 on chain, not mra;
	// park also wall_ns_per_task_p90 on stencil and dist_stencil.
	{"rt.sched.push_per_task", "count"},
	{"rt.sched.pop_per_task", "count"},
	{"rt.sched.inject_per_task", "count"},
	{"rt.sched.steal_per_task", "count"},
	{"rt.sched.park_per_task", "count"},
	{"rt.pool.task_hit_ratio", "ratio"},
	{"rt.pool.copy_hit_ratio", "ratio"},
	{"rt.task.inlined_share", "ratio"},
	{"rt.atomics.pool_per_task", "count"},
	{"rt.atomics.input_per_task", "count"},
	{"rt.atomics.copyref_per_task", "count"},
	{"rt.atomics.sched_per_task", "count"},
	{"rt.atomics.total_per_task", "count"},
	{"rt.queue_wait_share", "ratio"},
	{"rt.overhead_ns_per_task", "ns"},
	// termdet: core_ns_per_task on chain and dist_stencil.
	{"termdet.flushes_per_task", "count"},
	{"rt.atomics.termdet_per_task", "count"},
	{"probe.termdet.pair_ns", "ns"},
	// hashtable and rwlock: core_ns_per_task on stencil; exactly 0 on chain.
	{"hashtable.find_per_task", "count"},
	{"hashtable.insert_per_task", "count"},
	{"hashtable.remove_per_task", "count"},
	{"hashtable.find_hit_ratio", "ratio"},
	{"rwlock.fast_share", "ratio"},
	{"rt.atomics.bucket_per_task", "count"},
	{"rt.atomics.rwlock_per_task", "count"},
	{"probe.hashtable.insert_ns", "ns"},
	{"probe.hashtable.find_ns", "ns"},
	{"probe.hashtable.remove_ns", "ns"},
	{"probe.rwlock.read_ns", "ns"},
	// core: allocs_per_task on stencil, setup_s everywhere.
	{"core.codec_gob_share", "ratio"},
	{"core.build_ns", "ns"},
	{"core.make_executable_ns", "ns"},
	{"core.seed_ns", "ns"},
	{"core.wait_ns", "ns"},
	{"core.shutdown_ns", "ns"},
	{"bench.verify_ns", "ns"},
	// comm: wall_ns_per_task_p50 and core_ns_per_task on dist_stencil only.
	{"comm.frames_per_task", "count"},
	{"comm.bytes_per_task", "B"},
	{"comm.acts_per_frame", "count"},
	{"comm.flush_size_share", "ratio"},
	{"comm.flush_idle_share", "ratio"},
	{"comm.ctrl_per_task", "count"},
	{"comm.rounds_per_frame", "count"},
	{"comm.retransmits", "count"},
	{"comm.wait_share", "ratio"},
	{"probe.comm.append_ns", "ns"},
	{"probe.comm.flush_ns", "ns"},
	// kernels: wall_ns_per_task_p50 on mra only.
	{"kernel.body_share", "ratio"},
	{"mra.filter_ns", "ns"},
	{"mra.unfilter_ns", "ns"},
	{"mra.project_box_ns", "ns"},
	// observability: traced over untraced core_ns_per_task.
	{"trace.overhead_ratio", "ratio"},
}

// spanMetrics maps a span name to the metric reporting its median self time.
var spanMetrics = map[string]string{
	"build":           "core.build_ns",
	"make_executable": "core.make_executable_ns",
	"seed":            "core.seed_ns",
	"wait":            "core.wait_ns",
	"shutdown":        "core.shutdown_ns",
	"verify":          "bench.verify_ns",
}

// layerSample is what one traced rep's instrumentation read at the end of
// its wait span: every rank's registry (counters, gauges and the comm batch
// histogram), the atomic-operation audit, and the critical-path analysis of
// the causal spans of all ranks.
type layerSample struct {
	tasks   float64
	counts  map[string]float64
	atomics rt.AtomicCounts
	// path is the critical-path report without its step list, which would
	// keep every span of the rep alive.
	path critpath.Report
}

func collectLayer(r *rep, tasks int64) (layerSample, error) {
	ls := layerSample{tasks: float64(tasks), counts: make(map[string]float64)}
	var spans []critpath.Span
	for _, g := range r.graphs {
		snap := g.MetricsSnapshot()
		for k, v := range snap.Counters {
			ls.counts[k] += float64(v)
		}
		for k, v := range snap.Gauges {
			ls.counts[k] += float64(v)
		}
		addAtomics(&ls.atomics, g.Runtime().Atomics())
		spans = append(spans, critpath.FromTrace(g.Rank(), g.Runtime().Trace())...)
	}
	if r.world != nil {
		snap := r.world.MetricsSnapshot()
		for k, v := range snap.Counters {
			ls.counts[k] += float64(v)
		}
		for k, v := range snap.Gauges {
			ls.counts[k] += float64(v)
		}
		h := snap.Histograms["comm.batch_size"]
		ls.counts["comm.batch_size.sum"] += float64(h.Sum)
	}
	path, err := critpath.Analyze(spans)
	if err != nil {
		return ls, fmt.Errorf("critical path: %w", err)
	}
	ls.path = *path
	ls.path.Path = nil
	return ls, nil
}

func addAtomics(dst *rt.AtomicCounts, a rt.AtomicCounts) {
	dst.Pool += a.Pool
	dst.Input += a.Input
	dst.CopyRef += a.CopyRef
	dst.Bucket += a.Bucket
	dst.RWLock += a.RWLock
	dst.Sched += a.Sched
	dst.TermDet += a.TermDet
	dst.Alloc += a.Alloc
}

// addCounts records the sample's headline counts on a span.
func (ls *layerSample) addCounts(c map[string]float64) {
	c["atomics.total"] = float64(ls.atomics.Total())
	c["core.ht.find"] = ls.counts["core.ht.find.hit"] + ls.counts["core.ht.find.miss"]
	c["comm.msgs.sent"] = ls.counts["comm.msgs.sent"]
	c["critpath.len_ns"] = float64(ls.path.LenNs)
	c["critpath.tasks"] = float64(ls.path.Tasks)
}

// layerMetrics derives the per-layer metrics of the traced reps: counts are
// summed over the reps and divided by their tasks, critical-path shares are
// medians over the reps.
func layerMetrics(reps []repStats, m map[string]float64) {
	c := make(map[string]float64)
	var a rt.AtomicCounts
	var tasks float64
	var queue, overhead, comm, body []float64
	for _, st := range reps {
		ls := st.layer
		tasks += ls.tasks
		for k, v := range ls.counts {
			c[k] += v
		}
		addAtomics(&a, ls.atomics)
		p := ls.path
		l := float64(p.LenNs)
		queue = append(queue, ratio(float64(p.QueueNs), l))
		comm = append(comm, ratio(float64(p.CommNs), l))
		body = append(body, ratio(float64(p.BodyNs), l))
		overhead = append(overhead, p.PerTaskOverheadNs)
	}
	per := func(v float64) float64 { return ratio(v, tasks) }
	share := func(x, rest float64) float64 { return ratio(x, x+rest) }

	m["rt.sched.push_per_task"] = per(c["rt.sched.push"])
	m["rt.sched.pop_per_task"] = per(c["rt.sched.pop"])
	m["rt.sched.inject_per_task"] = per(c["rt.sched.inject"])
	m["rt.sched.steal_per_task"] = per(c["rt.sched.steal"])
	m["rt.sched.park_per_task"] = per(c["rt.sched.park"])
	m["rt.pool.task_hit_ratio"] = share(c["rt.pool.task.hit"], c["rt.pool.task.miss"])
	m["rt.pool.copy_hit_ratio"] = share(c["rt.pool.copy.hit"], c["rt.pool.copy.miss"])
	m["rt.task.inlined_share"] = per(c["rt.task.inlined"] + c["rt.task.inlined_adaptive"])
	m["rt.atomics.pool_per_task"] = per(float64(a.Pool))
	m["rt.atomics.input_per_task"] = per(float64(a.Input))
	m["rt.atomics.copyref_per_task"] = per(float64(a.CopyRef))
	m["rt.atomics.sched_per_task"] = per(float64(a.Sched))
	m["rt.atomics.total_per_task"] = per(float64(a.Total()))
	m["rt.queue_wait_share"] = median(queue)
	m["rt.overhead_ns_per_task"] = median(overhead)

	m["termdet.flushes_per_task"] = per(c["termdet.flushes"])
	m["rt.atomics.termdet_per_task"] = per(float64(a.TermDet))

	hit, miss := c["core.ht.find.hit"], c["core.ht.find.miss"]
	m["hashtable.find_per_task"] = per(hit + miss)
	m["hashtable.insert_per_task"] = per(c["core.ht.insert"])
	m["hashtable.remove_per_task"] = per(c["core.ht.remove"])
	m["hashtable.find_hit_ratio"] = share(hit, miss)
	m["rwlock.fast_share"] = share(c["rwlock.rlock.fast"], c["rwlock.rlock.slow"])
	m["rt.atomics.bucket_per_task"] = per(float64(a.Bucket))
	m["rt.atomics.rwlock_per_task"] = per(float64(a.RWLock))

	m["core.codec_gob_share"] = share(c["core.codec_gob"], c["core.codec_fastpath"])

	frames := c["comm.msgs.sent"]
	flushes := c["comm.flushes.size"] + c["comm.flushes.idle"] + c["comm.flushes.shutdown"]
	m["comm.frames_per_task"] = per(frames)
	m["comm.bytes_per_task"] = per(c["comm.bytes.sent"])
	m["comm.acts_per_frame"] = ratio(c["comm.batch_size.sum"], frames)
	m["comm.flush_size_share"] = ratio(c["comm.flushes.size"], flushes)
	m["comm.flush_idle_share"] = ratio(c["comm.flushes.idle"], flushes)
	m["comm.ctrl_per_task"] = per(c["comm.ctrl.sent"])
	m["comm.rounds_per_frame"] = ratio(c["comm.rounds"], frames)
	m["comm.retransmits"] = c["comm.retransmits"]
	m["comm.wait_share"] = median(comm)

	m["kernel.body_share"] = median(body)
}
