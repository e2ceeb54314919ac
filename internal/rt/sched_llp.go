package rt

import (
	"sync/atomic"

	"gottg/internal/xsync"
)

// llpQueue is one worker's Local LIFO with Priorities (paper §IV-C).
//
// Invariants:
//   - only the owning worker pushes;
//   - the chain hanging off head is always sorted by descending Priority,
//     with newer tasks ahead of equal-priority older tasks (cache warmth);
//   - stealers and the owner remove via CAS/Swap on head only.
//
// Every mutating operation follows the paper's detach/modify/reattach
// discipline, generalized to the whole API for memory safety under task
// recycling: the operator detaches the entire chain with one atomic Swap
// (marking the LIFO empty), mutates it privately, and — if it is the queue's
// owner — reattaches with a plain atomic Store. This is ABA-free and never
// dereferences a node it does not exclusively own: after the Swap, no other
// thread holds a path to the chain (stealers can only Swap the head, which
// is now nil), so freed-and-recycled tasks can never be touched.
//
// Cost per owner push/pop: one atomic RMW (the Swap) plus one atomic store —
// the same order as the paper's single-CAS fast path.
type llpQueue struct {
	head atomic.Pointer[Task]
	_    [xsync.CacheLineSize - 8]byte
}

func (q *llpQueue) push(w *Worker, t *Task, prio bool) {
	h := q.head.Swap(nil)
	w.countAtomic(&w.Atomics.Sched)
	w.countAtomic(&w.Atomics.Stores) // the reattach below, on every branch
	t.next = nil
	if h == nil {
		q.head.Store(t)
		return
	}
	if !prio || t.Priority >= h.Priority {
		// Fast path: new task belongs at the head (LIFO order; for equal
		// priorities newer-first keeps cache-warm data early).
		t.next = h
		q.head.Store(t)
		return
	}
	q.head.Store(insertSorted(h, t))
}

// pushChain inserts an already-sorted chain of tasks in one detach/merge.
func (q *llpQueue) pushChain(w *Worker, chain *Task, prio bool) {
	if chain == nil {
		return
	}
	h := q.head.Swap(nil)
	w.countAtomic(&w.Atomics.Sched)
	w.countAtomic(&w.Atomics.Stores) // the reattach below, on every branch
	switch {
	case h == nil:
		q.head.Store(chain)
	case !prio:
		tail := chain
		for tail.next != nil {
			tail = tail.next
		}
		tail.next = h
		q.head.Store(chain)
	default:
		q.head.Store(mergeSorted(chain, h))
	}
}

func (q *llpQueue) pop(w *Worker) *Task {
	if q.head.Load() == nil {
		return nil
	}
	h := q.head.Swap(nil)
	// The Swap is an atomic RMW whether or not it won the race with a
	// stealer — account it unconditionally or the N_OP-per-task model is
	// fed an undercount (empty-queue polls above never reach the Swap and
	// correctly cost nothing).
	w.countAtomic(&w.Atomics.Sched)
	if h == nil {
		return nil // lost to a stealer between the check and the swap
	}
	if rest := h.next; rest != nil {
		// Owner-only reattach: nothing can have been pushed meanwhile
		// (pushes are owner-only and the owner is here).
		q.head.Store(rest)
		w.countAtomic(&w.Atomics.Stores)
	}
	h.next = nil
	return h
}

// stealAll detaches the victim's whole chain. The thief keeps the first task
// and adopts the remainder into its own queue; see llp.Steal.
func (q *llpQueue) stealAll(w *Worker) *Task {
	if q.head.Load() == nil {
		return nil
	}
	// As in pop: the Swap RMW happened even if another thief emptied the
	// queue first, so it is accounted unconditionally.
	h := q.head.Swap(nil)
	w.countAtomic(&w.Atomics.Sched)
	return h
}

// insertSorted inserts t into the descending-priority chain h, before older
// tasks of equal priority, and returns the new head. The chain is private to
// the caller. O(N) worst case, mitigated by pushChain bundling.
func insertSorted(h *Task, t *Task) *Task {
	if h == nil || t.Priority >= h.Priority {
		t.next = h
		return t
	}
	cur := h
	for cur.next != nil && cur.next.Priority > t.Priority {
		cur = cur.next
	}
	t.next = cur.next
	cur.next = t
	return h
}

// mergeSorted merges two descending-priority chains, preferring nodes from a
// (the newer chain) on ties.
func mergeSorted(a, b *Task) *Task {
	var head, tail *Task
	appendTask := func(t *Task) {
		if tail == nil {
			head, tail = t, t
		} else {
			tail.next = t
			tail = t
		}
	}
	for a != nil && b != nil {
		if a.Priority >= b.Priority {
			n := a.next
			appendTask(a)
			a = n
		} else {
			n := b.next
			appendTask(b)
			b = n
		}
	}
	rest := a
	if rest == nil {
		rest = b
	}
	if tail == nil {
		return rest
	}
	tail.next = rest
	return head
}

// SortChain sorts a private task chain by descending priority (stable,
// newest-first among equals) — used to pre-sort bundles before PushChain
// (the paper's §IV-C mitigation for O(N) priority insertion).
func SortChain(head *Task) *Task { return sortChain(head) }

// sortChain sorts a private chain by descending priority (stable), used to
// pre-sort bundles before PushChain. Insertion sort: bundles are small.
func sortChain(head *Task) *Task {
	var sorted *Task
	var sortedTail *Task
	for head != nil {
		n := head.next
		head.next = nil
		if sorted == nil {
			sorted, sortedTail = head, head
		} else if head.Priority <= sortedTail.Priority {
			// common case: appending in discovery order
			sortedTail.next = head
			sortedTail = head
		} else {
			sorted = insertSorted(sorted, head)
			for sortedTail.next != nil {
				sortedTail = sortedTail.next
			}
		}
		head = n
	}
	return sorted
}

// llp is the LLP (or LL, when prio is false) scheduler: one llpQueue per
// worker plus round-robin stealing.
type llp struct {
	queues []llpQueue
	prio   bool
	ws     []*Worker
}

func newLLP(workers []*Worker, prio bool) *llp {
	return &llp{queues: make([]llpQueue, len(workers)), prio: prio, ws: workers}
}

// Push implements scheduler.
func (s *llp) Push(wid int, t *Task) {
	s.queues[wid].push(s.ws[wid], t, s.prio)
}

// PushChain implements scheduler; the chain must be priority-sorted.
func (s *llp) PushChain(wid int, head *Task, n int) {
	s.queues[wid].pushChain(s.ws[wid], head, s.prio)
}

// Pop implements scheduler.
func (s *llp) Pop(wid int) *Task {
	return s.queues[wid].pop(s.ws[wid])
}

// Steal implements scheduler: scan other workers; on a hit, take the whole
// chain, keep the head task, and adopt the rest locally. Adopting (rather
// than re-publishing to the victim) keeps the operation ABA-free with a
// single Swap; the paper steals single tasks, which our adoption subsumes —
// a starving thief by definition has an empty queue to put them in.
func (s *llp) Steal(wid int) *Task {
	w := s.ws[wid]
	n := len(s.queues)
	for _, v := range stealOrder(w, n, w.victimBuf()) {
		if chain := s.queues[v].stealAll(w); chain != nil {
			w.Stats.Steals.Add(1)
			rest := chain.next
			chain.next = nil
			if rest != nil {
				s.queues[wid].pushChain(w, rest, s.prio)
			}
			return chain
		}
	}
	return nil
}

// DrainReady implements scheduler: detach every per-worker chain with the
// same single-Swap discipline as stealAll and merge them into one
// descending-priority chain. After each Swap the chain is exclusively owned,
// so the merge never races with workers.
func (s *llp) DrainReady(w *Worker) (*Task, int) {
	var all *Task
	for i := range s.queues {
		if chain := s.queues[i].stealAll(w); chain != nil {
			all = mergeSorted(all, chain)
		}
	}
	n := 0
	for t := all; t != nil; t = t.next {
		n++
	}
	return all, n
}

// LocalNonEmpty implements scheduler: one atomic load of the worker's own
// queue head.
func (s *llp) LocalNonEmpty(wid int) bool {
	return s.queues[wid].head.Load() != nil
}

// Name implements scheduler.
func (s *llp) Name() string {
	if s.prio {
		return "LLP"
	}
	return "LL"
}
