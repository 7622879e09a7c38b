// Command perfbench is Lumen's end-to-end benchmark. It drives the
// resident daemon (internal/daemon) in-process over replay, watch and
// feed ingest, and the paper's Fig. 5 evaluation suite
// (internal/benchsuite), checks every verdict against a reference, and
// prints one JSON result line. With -trace 1 it instead times each
// layer of the program from outside, through the public functions of
// its modules, on the workload's own inputs (see ladder.go).
//
// Run it from the root of a checkout through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload replay-smarthome --seed 1 --seconds 10 --trace 0
//
// NOTES.md records the design: why each workload, what each metric
// means, and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload runs one benchmark workload. timed reports the end-to-end
// metrics; traced reports the per-layer ladder.
type workload struct {
	timed  func(env *env) (map[string]float64, error)
	traced func(env *env) (map[string]float64, error)
}

var workloads = map[string]workload{
	"replay-smarthome": {timed: replayTimed, traced: replayTraced},
	"watch-kitsune":    {timed: watchTimed, traced: watchTraced},
	"feed-open":        {timed: feedTimed, traced: feedTraced},
	"suite-fig5":       {timed: suiteTimed, traced: suiteTraced},
}

// units names the unit of every metric the benchmark prints.
var units = map[string]string{
	"setup_s":      "s",
	"pps":          "1/s",
	"lat_p50_ms":   "ms",
	"cpu_s":        "s",
	"alloc_mb":     "MB",
	"peak_heap_mb": "MB",
	// Per-layer metrics whose unit the name suffix does not give.
	"benchsuite.run_s_p50": "s",
}

// procs is the number of CPUs the process (benchmark and program) runs
// on. The benchmark is meant for a small shared host: a program that
// spreads over every CPU of a 2-CPU host measures its neighbours' load
// as much as its own work (see NOTES.md, Bounds and steadiness), so every
// workload runs single-core, as a lumend pinned to one core would.
const procs = 1

// env is the per-run context shared by the workloads.
type env struct {
	seed    int64
	seconds time.Duration
	// dir is a scratch directory inside the checkout, removed at exit.
	dir   string
	tally tally
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "seconds to measure")
	trace := flag.Int("trace", 0, "1 = traced per-layer run")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fail(fmt.Errorf("unknown -workload %q (want one of %v)", *name, names))
	}
	if *seconds < 1 {
		fail(fmt.Errorf("-seconds must be at least 1"))
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fail(err)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fail(err)
	}
	runtime.GOMAXPROCS(procs)
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, dir: dir}
	run := wl.timed
	if *trace == 1 {
		run = wl.traced
	}
	metrics, err := run(e)
	os.RemoveAll(dir)
	if err != nil {
		fail(err)
	}
	out := result{
		Correct:   e.tally.failed == 0 && e.tally.attempted > 0,
		Attempted: e.tally.attempted,
		Failed:    e.tally.failed,
		Metrics:   map[string]metric{},
	}
	for k, v := range metrics {
		u, ok := units[k]
		if !ok {
			u = unitOf(k)
		}
		out.Metrics[k] = metric{Value: v, Unit: u}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

// fail reports err and exits without printing a result line.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts checked outputs. Every verdict, conn-log and suite run the
// benchmark checks is one attempt; a wrong or missing one is a failure,
// reported on stderr with what differed.
type tally struct {
	attempted, failed int
	reported          int
}

// check records n attempts of which bad failed, printing why (the first
// few reasons only, so a broken build does not flood stderr).
func (t *tally) check(n, bad int, format string, args ...any) {
	t.attempted += n
	t.failed += bad
	if bad > 0 && t.reported < 20 {
		t.reported++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %d of %d: %s\n", bad, n, fmt.Sprintf(format, args...))
	}
}

// scratch returns a path inside the run's scratch directory.
func (e *env) scratch(name string) string { return filepath.Join(e.dir, name) }
