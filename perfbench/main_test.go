package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"gottg/internal/taskbench"
)

// runSmall runs one workload at the smoke-test size.
func runSmall(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	res, err := run(options{workload: workload, seed: 7, trace: trace, small: true, spansDir: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	return res
}

// printed parses the result line printResult writes last.
func printed(t *testing.T, res *result) map[string]jsonMetric {
	t.Helper()
	var buf bytes.Buffer
	if err := printResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out struct {
		Correct   *bool                 `json:"correct"`
		Attempted *int                  `json:"attempted"`
		Failed    *int                  `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if out.Correct == nil || out.Attempted == nil || out.Failed == nil || out.Metrics == nil {
		t.Fatalf("last line %q lacks a key", lines[len(lines)-1])
	}
	if !*out.Correct || *out.Failed != 0 || *out.Attempted < 1 {
		t.Fatalf("last line %q: want correct, no failures", lines[len(lines)-1])
	}
	return out.Metrics
}

func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				a, b := runSmall(t, w.name, trace), runSmall(t, w.name, trace)
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				got := printed(t, a)
				if len(got) != len(defs) {
					t.Errorf("trace=%v: printed %d metrics, want %d", trace, len(got), len(defs))
				}
				for _, d := range defs {
					m, ok := got[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("trace=%v: metric %s printed as %+v, want unit %s", trace, d.name, m, d.unit)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("trace=%v: metric %s = %v", trace, d.name, m.Value)
					}
				}
				if a.failedRatio() != 0 || b.failedRatio() != 0 {
					t.Errorf("trace=%v: failed_ratio %v and %v, want 0", trace, a.failedRatio(), b.failedRatio())
				}
				if a.Record.TasksPerRep != b.Record.TasksPerRep {
					t.Errorf("trace=%v: tasks per rep %d then %d", trace, a.Record.TasksPerRep, b.Record.TasksPerRep)
				}
				if !trace {
					for _, d := range endToEnd {
						if a.Metrics[d.name] <= 0 {
							t.Errorf("%s = %v, want > 0", d.name, a.Metrics[d.name])
						}
					}
					continue
				}
				for _, name := range repeatable[w.name] {
					if a.Metrics[name] != b.Metrics[name] {
						t.Errorf("%s changed between identical runs: %v then %v", name, a.Metrics[name], b.Metrics[name])
					}
				}
				for _, name := range zero[w.name] {
					if a.Metrics[name] != 0 {
						t.Errorf("%s = %v, want exactly 0", name, a.Metrics[name])
					}
				}
				if frames := a.Metrics["comm.frames_per_task"]; (frames > 0) != (w.name == "dist_stencil") {
					t.Errorf("comm.frames_per_task = %v on %s", frames, w.name)
				}
			}
		})
	}
}

// repeatable are the per-layer counts that must repeat exactly between two
// runs of the same seed; zero those that must be exactly 0.
var (
	repeatable = map[string][]string{
		"chain": {
			"hashtable.find_per_task", "hashtable.insert_per_task", "hashtable.remove_per_task",
			"rt.atomics.pool_per_task", "rt.atomics.input_per_task", "rt.atomics.copyref_per_task",
			"rt.atomics.sched_per_task", "rt.atomics.termdet_per_task", "rt.atomics.bucket_per_task",
			"rt.atomics.rwlock_per_task", "rt.atomics.total_per_task",
		},
		"dist_stencil": {"comm.retransmits", "core.codec_gob_share"},
	}
	zero = map[string][]string{
		"chain": {
			"hashtable.find_per_task", "hashtable.insert_per_task", "hashtable.remove_per_task",
			"rt.atomics.bucket_per_task", "rt.atomics.rwlock_per_task",
		},
		"dist_stencil": {"comm.retransmits", "core.codec_gob_share"},
	}
)

// TestStencilReference ties the seeded reference to the spec's own: with
// all-zero t=0 inputs the two sweeps agree bit for bit.
func TestStencilReference(t *testing.T) {
	s := stencilSpec(40)
	got := stencilReference(s, make([]float64, s.Width))
	if want := s.Reference(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("seeded reference with zero inputs = %v, Spec.Reference = %v", got, want)
	}
	if s.Pattern != taskbench.Stencil1D {
		t.Fatalf("pattern %v", s.Pattern)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's tables in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %s: %s", i, w, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, program %s %s", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
