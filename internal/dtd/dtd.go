// Package dtd is a Dynamic Task Discovery frontend over the gottg runtime —
// the analogue of PaRSEC DTD (Hoque et al., ScalA'17, the paper's [35]) and
// of StarPU/OmpSs-style insert_task programming: a single thread inserts
// tasks sequentially, declaring how each accesses shared data handles, and
// the runtime infers dependencies from the access sequence (read-after-
// write, write-after-read, write-after-write).
//
// Unlike the OpenMP-tasks baseline (internal/omptask), whose fidelity to
// GCC demands one central queue, DTD dispatches through the full gottg
// scheduler stack — demonstrating that the paper's runtime optimizations
// (LLP, thread-local termination detection) benefit every PaRSEC frontend,
// not just TTG.
package dtd

import (
	"sync"

	"gottg/internal/rt"
)

// Handle names one unit of shared data tracked by the dependence system.
type Handle struct {
	mu         sync.Mutex
	lastWriter *node
	readers    []*node
}

// node is the per-task dependence record.
type node struct {
	task  *rt.Task
	mu    sync.Mutex
	done  bool
	succs []*node
}

// Access declares how a task uses a handle.
type Access struct {
	h     *Handle
	write bool
}

// Read declares a read access.
func Read(h *Handle) Access { return Access{h: h} }

// Write declares a write (or read-write) access.
func Write(h *Handle) Access { return Access{h: h, write: true} }

// Runtime is a DTD execution context.
type Runtime struct {
	rtm      *rt.Runtime
	inserted int64
	waited   bool
}

// New creates a DTD runtime with the given configuration and starts its
// workers.
func New(cfg rt.Config) *Runtime {
	r := &Runtime{rtm: rt.New(cfg)}
	r.rtm.BeginAction() // insertion guard, released by Wait
	r.rtm.Start(false)
	return r
}

// Runtime exposes the underlying gottg runtime.
func (r *Runtime) Runtime() *rt.Runtime { return r.rtm }

// NewData creates a data handle.
func (r *Runtime) NewData() *Handle { return &Handle{} }

// dtdName labels DTD tasks in traces.
type dtdName string

// Name implements rt.Named.
func (n dtdName) Name() string { return string(n) }

// Insert submits a task that accesses the given handles. Insertion must
// happen from one goroutine (the paper's DTD model: sequential task
// insertion, parallel execution). The body runs once all inferred
// dependencies are satisfied.
func (r *Runtime) Insert(name string, body func(), accesses ...Access) {
	if r.waited {
		panic("dtd: Insert after Wait")
	}
	sw := r.rtm.ServiceWorker(0)
	t := sw.NewTask()
	nd := &node{task: t}
	t.TT = dtdName(name)
	t.Exec = func(w *rt.Worker, tk *rt.Task) {
		body()
		nd.release(w)
		w.Completed()
		w.FreeTask(tk)
	}

	// Arm with a sentinel before any predecessor can see this node: preds
	// may complete (and decrement) concurrently with the registration loop
	// below, so the counter must already be live. The sentinel surplus is
	// removed at the end, once the true dependence count is known.
	const sentinel = 1 << 30
	t.ArmDeps(sw, sentinel)

	// Infer dependencies from the access sequence.
	ndeps := int32(0)
	addPred := func(p *node) {
		if p == nil || p == nd {
			return
		}
		p.mu.Lock()
		if !p.done {
			p.succs = append(p.succs, nd)
			ndeps++
		}
		p.mu.Unlock()
	}
	for _, a := range accesses {
		a.h.mu.Lock()
		if a.write {
			addPred(a.h.lastWriter)
			for _, rd := range a.h.readers {
				addPred(rd)
			}
			a.h.lastWriter = nd
			a.h.readers = a.h.readers[:0]
		} else {
			addPred(a.h.lastWriter)
			a.h.readers = append(a.h.readers, nd)
		}
		a.h.mu.Unlock()
	}

	r.inserted++
	sw.Discovered()
	if t.SatisfyDep(sw, sentinel-ndeps) {
		sw.Schedule(t)
	}
}

// release marks the node complete and satisfies its successors.
func (n *node) release(w *rt.Worker) {
	n.mu.Lock()
	n.done = true
	succs := n.succs
	n.succs = nil
	n.mu.Unlock()
	for _, s := range succs {
		if s.task.SatisfyDep(w, 1) {
			w.Schedule(s.task)
		}
	}
}

// Wait blocks until every inserted task has completed and shuts the
// runtime down. The Runtime is finished afterwards.
func (r *Runtime) Wait() {
	if r.waited {
		panic("dtd: Wait called twice")
	}
	r.waited = true
	r.rtm.EndAction()
	r.rtm.WaitDone()
}

// Inserted reports how many tasks were submitted.
func (r *Runtime) Inserted() int64 { return r.inserted }
