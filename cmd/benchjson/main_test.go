package main

import (
	"bufio"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: lumen/internal/core
cpu: test
BenchmarkStreamBatch-8        1   5000000 ns/op   123456 peak-B   2048 B/op   17 allocs/op
BenchmarkStreamChunk64-8      1   7000000 ns/op    45678 peak-B
BenchmarkStreamChunk64-8      1   6000000 ns/op    44000 peak-B
PASS
ok  	lumen/internal/core	1.0s
`

func TestParseMetrics(t *testing.T) {
	run, err := parse(bufio.NewScanner(strings.NewReader(sampleOutput)))
	if err != nil {
		t.Fatal(err)
	}
	if run.Pkg != "lumen/internal/core" {
		t.Errorf("pkg = %q", run.Pkg)
	}
	if len(run.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2 (best-of-N merge)", len(run.Benchmarks))
	}
	b := run.Benchmarks[0]
	if b.Name != "BenchmarkStreamBatch" {
		t.Errorf("name = %q (GOMAXPROCS suffix must be stripped)", b.Name)
	}
	if b.Metrics["peak-B"] != 123456 || b.Metrics["B/op"] != 2048 || b.Metrics["allocs/op"] != 17 {
		t.Errorf("metrics = %v", b.Metrics)
	}
	// Best-of-N keeps the faster run's metrics alongside its ns/op.
	c := run.Benchmarks[1]
	if c.NsPerOp != 6000000 {
		t.Errorf("ns/op = %v, want best-of-N 6000000", c.NsPerOp)
	}
	if c.Metrics["peak-B"] != 44000 {
		t.Errorf("metrics not taken from the fastest run: %v", c.Metrics)
	}
}

func TestParseNoMetrics(t *testing.T) {
	run, err := parse(bufio.NewScanner(strings.NewReader(
		"BenchmarkX-4   10   100 ns/op\n")))
	if err != nil {
		t.Fatal(err)
	}
	if run.Benchmarks[0].Metrics != nil {
		t.Errorf("plain ns/op line should have nil metrics: %v", run.Benchmarks[0].Metrics)
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := parse(bufio.NewScanner(strings.NewReader("PASS\n"))); err == nil {
		t.Error("no benchmark lines should be an error")
	}
}

func TestParseSpreadAndProcs(t *testing.T) {
	run, err := parse(bufio.NewScanner(strings.NewReader(sampleOutput)))
	if err != nil {
		t.Fatal(err)
	}
	if run.GOMAXPROCS != 8 {
		t.Errorf("gomaxprocs = %d, want 8 from the -8 suffix", run.GOMAXPROCS)
	}
	c := run.Benchmarks[1]
	if c.Count != 2 || c.MinNs != 6000000 || c.MaxNs != 7000000 || c.MedianNs != 6500000 {
		t.Errorf("count/min/median/max = %d/%v/%v/%v, want 2/6e6/6.5e6/7e6", c.Count, c.MinNs, c.MedianNs, c.MaxNs)
	}
	one, err := parse(bufio.NewScanner(strings.NewReader("BenchmarkX   10   100 ns/op\nBenchmarkX   10   300 ns/op\nBenchmarkX   10   200 ns/op\n")))
	if err != nil {
		t.Fatal(err)
	}
	if one.GOMAXPROCS != 1 {
		t.Errorf("no suffix means GOMAXPROCS 1, got %d", one.GOMAXPROCS)
	}
	if b := one.Benchmarks[0]; b.Count != 3 || b.MedianNs != 200 || b.NsPerOp != 100 {
		t.Errorf("count/median/best = %d/%v/%v, want 3/200/100", b.Count, b.MedianNs, b.NsPerOp)
	}
}
