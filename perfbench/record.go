package main

import (
	"runtime"
	"runtime/debug"
	"syscall"
)

// runRecord says where and how a run was made, so any number can be traced
// back to its commit, host and inputs.
type runRecord struct {
	Workload      string     `json:"workload"`
	Seed          int64      `json:"seed"`
	Seconds       float64    `json:"seconds"`
	Trace         int        `json:"trace"`
	Commit        string     `json:"commit"`
	NProc         int        `json:"nproc"`
	GOMAXPROCS    int        `json:"gomaxprocs"`
	GoVersion     string     `json:"go_version"`
	LoadBefore    [3]float64 `json:"loadavg_before"`
	LoadAfter     [3]float64 `json:"loadavg_after"`
	Reps          int        `json:"reps"`
	TracedReps    int        `json:"traced_reps"`
	TasksPerRep   int64      `json:"tasks_per_rep"`
	Reference     string     `json:"reference"`
	WaitTimeoutMs int64      `json:"wait_timeout_ms"`
}

func newRunRecord(workload string, seed int64, seconds float64, trace int) runRecord {
	return runRecord{
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		Commit:     commit(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		LoadBefore: loadAvg(),
	}
}

// commit is the VCS revision the go command stamped into the binary, or
// "unknown" when it was built outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// loadAvg is the 1, 5 and 15 minute load average (zeros if unavailable).
func loadAvg() [3]float64 {
	var si syscall.Sysinfo_t
	if syscall.Sysinfo(&si) != nil {
		return [3]float64{}
	}
	var out [3]float64
	for i, l := range si.Loads {
		out[i] = float64(l) / 65536
	}
	return out
}

// cpuTime is the process's user+system CPU time. getrusage on the calling
// process cannot fail with a valid buffer.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
