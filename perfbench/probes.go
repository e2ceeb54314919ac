package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"gottg/internal/comm"
	"gottg/internal/hashtable"
	"gottg/internal/linalg"
	"gottg/internal/mra"
	"gottg/internal/rwlock"
	"gottg/internal/termdet"
	"gottg/ttg"
)

// The layer probes time the exported operations of single layers at the
// workload's own sizes, so a regression can be pinned on one layer without
// tracing inside the program. Each reports the median over probeRounds of
// the mean time per operation.
const probeRounds = 9

// runProbes fills the probe.* and mra.* kernel metrics.
func runProbes(inst *instance, seed int64, small bool, m map[string]float64) error {
	scale := 1
	if small {
		scale = 20
	}
	m["probe.hashtable.insert_ns"], m["probe.hashtable.find_ns"], m["probe.hashtable.remove_ns"] =
		probeHashtable(inst.probeKeys, inst.probeWorkers)

	l := rwlock.New(true, inst.probeWorkers)
	m["probe.rwlock.read_ns"] = perOp(200_000/scale, func(int) {
		l.RLock(0)
		l.RUnlock(0)
	})

	d := termdet.New(inst.probeWorkers, true)
	m["probe.termdet.pair_ns"] = perOp(1_000_000/scale, func(int) {
		d.Discovered(0)
		d.Completed(0)
	})

	var err error
	m["probe.comm.append_ns"], m["probe.comm.flush_ns"], err =
		probeComm(inst.payloadBytes, inst.actsPerFrame, 20_000/scale)
	if err != nil {
		return err
	}

	p := mraProblem(seed, 1)
	b := mra.NewBasis(p.K)
	f := p.UnitEval(0)
	var children [8]linalg.Cube
	for c := range children {
		children[c] = b.ProjectBox(f, 4, 8+uint32(c>>2&1), 8+uint32(c>>1&1), 8+uint32(c&1))
	}
	parent := b.Filter(&children)
	n := 400 / scale
	m["mra.project_box_ns"] = perOp(n, func(i int) { b.ProjectBox(f, 4, 8, 8, uint32(i&15)) })
	m["mra.filter_ns"] = perOp(n, func(int) { b.Filter(&children) })
	m["mra.unfilter_ns"] = perOp(n, func(i int) { b.Unfilter(parent, i&7) })
	return nil
}

// perOp is the median over probeRounds of the mean ns per call of op.
func perOp(n int, op func(i int)) float64 {
	per := make([]float64, probeRounds)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		per[r] = since(t0) / float64(n)
	}
	return median(per)
}

// since is the time elapsed since t in nanoseconds.
func since(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) }

// probeHashtable inserts the workload's key stream into a fresh table under
// the BRAVO lock, finds every key, then removes every key.
func probeHashtable(keys []uint64, workers int) (insert, find, remove float64) {
	entries := make([]hashtable.Entry, len(keys))
	var ins, fnd, rem []float64
	n := float64(len(keys))
	for r := 0; r < probeRounds; r++ {
		t := hashtable.New(hashtable.Options{InitialSize: 64, Lock: rwlock.New(true, workers)})
		for i := range entries {
			entries[i].Reset()
			entries[i].SetKey(keys[i])
		}
		t0 := time.Now()
		for i := range entries {
			t.Insert(0, &entries[i])
		}
		ins = append(ins, since(t0)/n)
		t0 = time.Now()
		for _, k := range keys {
			t.Find(0, k)
		}
		fnd = append(fnd, since(t0)/n)
		t0 = time.Now()
		for _, k := range keys {
			t.Remove(0, k)
		}
		rem = append(rem, since(t0)/n)
	}
	return median(ins), median(fnd), median(rem)
}

// probeComm appends activations of the workload's payload size from rank 0
// to rank 1 of a 2-rank world and flushes after every actsPerFrame of them,
// timing the appends (per activation) and the flushes (per frame).
func probeComm(payloadBytes, actsPerFrame, acts int) (appendNs, flushNs float64, err error) {
	const tag = 1
	w := ttg.NewWorld(2)
	defer w.Shutdown()
	var got atomic.Int64
	for r := 0; r < 2; r++ {
		w.Proc(r).RegisterBatched(tag, func(int, []byte) { got.Add(1) })
	}
	// Keep at most a few frames in flight, as the runtime's flush-on-idle
	// traffic does, so frame buffers recycle instead of being allocated.
	sent := int64(0)
	catchUp := func() error {
		deadline := time.Now().Add(abortGrace)
		for sent-got.Load() > int64(4*actsPerFrame) {
			if time.Now().After(deadline) {
				return fmt.Errorf("comm probe: %d of %d activations delivered", got.Load(), sent)
			}
			runtime.Gosched()
		}
		return nil
	}
	for r := 0; r < 2; r++ {
		w.Proc(r).Start(termdet.New(1, true), func() {})
	}
	p := w.Proc(0)
	payload := make([]byte, payloadBytes)
	frames := acts / actsPerFrame
	var app, fl []float64
	for r := 0; r < probeRounds; r++ {
		var ta, tf time.Duration
		for i := 0; i < frames; i++ {
			t0 := time.Now()
			for j := 0; j < actsPerFrame; j++ {
				buf := p.BatchBegin(1)
				p.BatchEnd(1, append(buf, payload...))
			}
			t1 := time.Now()
			p.FlushBatches(comm.FlushIdle)
			ta += t1.Sub(t0)
			tf += time.Since(t1)
			sent += int64(actsPerFrame)
			if err := catchUp(); err != nil {
				return 0, 0, err
			}
		}
		app = append(app, float64(ta.Nanoseconds())/float64(frames*actsPerFrame))
		fl = append(fl, float64(tf.Nanoseconds())/float64(frames))
	}
	return median(app), median(fl), nil
}
