// Command benchjson converts `go test -bench` output into a
// machine-readable JSON file so kernel speedups can be tracked across
// PRs (BENCH_PR3.json is the first datapoint). It reads benchmark
// output on stdin and merges one labelled run into the output file:
//
//	go test -bench . -benchtime=300ms ./internal/mlkit/ | benchjson -label current -out BENCH_PR3.json
//
// Runs are keyed by label ("baseline", "current", ...), so the file can
// hold a before/after pair; when both a baseline and a current run are
// present, a speedup table (baseline ns/op ÷ current ns/op per shared
// benchmark) is recomputed on every merge.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Bench is one parsed benchmark result line. Metrics holds any extra
// `<value> <unit>` pairs the benchmark reported after ns/op (B/op,
// allocs/op, custom b.ReportMetric units like peak-B), keyed by unit.
// With -count=N the result also records N and the min/median/max ns/op
// over the N runs; NsPerOp stays the best (min) run.
type Bench struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	Count      int                `json:"count"`
	MinNs      float64            `json:"min_ns"`
	MedianNs   float64            `json:"median_ns"`
	MaxNs      float64            `json:"max_ns"`

	samples []float64
}

// Run is one labelled `go test -bench` invocation.
type Run struct {
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	// GOMAXPROCS is read from the benchmark names' -N suffix, which go
	// test omits when it is 1.
	GOMAXPROCS int     `json:"gomaxprocs,omitempty"`
	Benchmarks []Bench `json:"benchmarks"`
}

// File is the merged on-disk document.
type File struct {
	Runs     map[string]*Run    `json:"runs"`
	Speedups map[string]float64 `json:"speedups,omitempty"`
}

func parse(r *bufio.Scanner) (*Run, error) {
	run := &Run{}
	for r.Scan() {
		line := r.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			run.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			run.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			run.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			// Multiple packages can share one pipe (BENCH_PR10.json spans
			// daemon + core); record each pkg line once, comma-joined.
			p := strings.TrimPrefix(line, "pkg: ")
			if run.Pkg == "" {
				run.Pkg = p
			} else if !strings.Contains(","+run.Pkg+",", ","+p+",") {
				run.Pkg += "," + p
			}
		case strings.HasPrefix(line, "Benchmark"):
			fields := strings.Fields(line)
			if len(fields) < 4 || fields[3] != "ns/op" {
				continue
			}
			iters, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				continue
			}
			ns, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				continue
			}
			// Any further `<value> <unit>` pairs (B/op, allocs/op,
			// b.ReportMetric extras) become Metrics entries.
			var metrics map[string]float64
			for i := 4; i+1 < len(fields); i += 2 {
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					break
				}
				if metrics == nil {
					metrics = map[string]float64{}
				}
				metrics[fields[i+1]] = v
			}
			// Strip the -N GOMAXPROCS suffix so labels are stable
			// across machines (BenchmarkMLPFit-8 -> BenchmarkMLPFit).
			name := fields[0]
			procs := 1
			if i := strings.LastIndex(name, "-"); i > 0 {
				if n, err := strconv.Atoi(name[i+1:]); err == nil {
					name, procs = name[:i], n
				}
			}
			run.GOMAXPROCS = procs
			// With -count=N the same benchmark appears N times; keep the
			// fastest run (best-of-N is the standard noise filter on
			// shared machines).
			merged := false
			for i := range run.Benchmarks {
				if b := &run.Benchmarks[i]; b.Name == name {
					if ns < b.NsPerOp {
						b.NsPerOp = ns
						b.Iterations = iters
						b.Metrics = metrics
					}
					b.samples = append(b.samples, ns)
					merged = true
					break
				}
			}
			if !merged {
				run.Benchmarks = append(run.Benchmarks, Bench{Name: name, Iterations: iters, NsPerOp: ns, Metrics: metrics, samples: []float64{ns}})
			}
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(run.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines on stdin")
	}
	for i := range run.Benchmarks {
		b := &run.Benchmarks[i]
		sort.Float64s(b.samples)
		n := len(b.samples)
		b.Count, b.MinNs, b.MaxNs = n, b.samples[0], b.samples[n-1]
		b.MedianNs = b.samples[n/2]
		if n%2 == 0 {
			b.MedianNs = (b.samples[n/2-1] + b.samples[n/2]) / 2
		}
	}
	return run, nil
}

func main() {
	label := flag.String("label", "current", "label for this run (e.g. baseline, current)")
	out := flag.String("out", "BENCH_PR3.json", "output JSON file; existing runs with other labels are kept")
	flag.Parse()

	run, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	doc := &File{Runs: map[string]*Run{}}
	if prev, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(prev, doc); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s exists but is not valid JSON: %v\n", *out, err)
			os.Exit(1)
		}
		if doc.Runs == nil {
			doc.Runs = map[string]*Run{}
		}
	}
	doc.Runs[*label] = run

	doc.Speedups = nil
	if base, cur := doc.Runs["baseline"], doc.Runs["current"]; base != nil && cur != nil {
		ns := map[string]float64{}
		for _, b := range base.Benchmarks {
			ns[b.Name] = b.NsPerOp
		}
		for _, c := range cur.Benchmarks {
			if b, ok := ns[c.Name]; ok && c.NsPerOp > 0 {
				if doc.Speedups == nil {
					doc.Speedups = map[string]float64{}
				}
				doc.Speedups[c.Name] = b / c.NsPerOp
			}
		}
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %d benchmarks as %q to %s\n", len(run.Benchmarks), *label, *out)
}
