package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"lumen/internal/benchsuite"
	"lumen/internal/core"
	"lumen/internal/daemon"
	"lumen/internal/dataset"
	"lumen/internal/flow"
	"lumen/internal/mlkit"
	"lumen/internal/netpkt"
	"lumen/internal/obs"
	"lumen/internal/pcap"
)

// The traced run times each layer of the program from outside, through
// the public functions of its module, on the workload's own inputs. The
// benchmark's spans (one per layer measurement, under one root span per
// run) go to an in-memory obs.Tracer that is written out at the end,
// together with each span's self time.

// ladderReps is how many times each layer measurement repeats; the
// median is reported.
const ladderReps = 5

// ladder collects the per-layer metrics of one traced run.
type ladder struct {
	tr   *obs.Tracer
	root *obs.Span
	m    map[string]float64
	// unmeasured names metrics the run could not measure, with why.
	unmeasured map[string]string
}

func newLadder(workload string) *ladder {
	tr := obs.NewTracer()
	return &ladder{tr: tr, root: tr.Start("perfbench:"+workload, 0), m: map[string]float64{}, unmeasured: map[string]string{}}
}

// layer runs fn ladderReps times under a span named name and records the
// median time per unit as name_ns_per_<unit>, plus the median heap
// objects and bytes per unit when allocs is set. units is how many
// packets or rows one call of fn processes.
func (l *ladder) layer(name, unit string, units int, allocs bool, fn func() error) error {
	sp := l.root.Child(name)
	defer sp.End()
	var ns, objs, byts []float64
	for i := 0; i < ladderReps; i++ {
		runtime.GC()
		b0, o0 := allocNow()
		t0 := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		d := time.Since(t0)
		b1, o1 := allocNow()
		ns = append(ns, float64(d.Nanoseconds())/float64(units))
		objs = append(objs, float64(o1-o0)/float64(units))
		byts = append(byts, float64(b1-b0)/float64(units))
	}
	l.m[name+"_ns_per_"+unit] = median(ns)
	if allocs {
		l.m[name+"_allocs_per_"+unit] = median(objs)
		l.m[name+"_b_per_"+unit] = median(byts)
	}
	sp.Set("units", units)
	return nil
}

// readCapture reads the whole capture through a mapped pcap.Reader as
// view chunks at hint depth, recycling slices like PcapSource does.
func readCapture(path string, hint netpkt.DecodeHint) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := pcap.OpenMmap(f)
	if err != nil {
		return err
	}
	defer r.Close()
	pool := pcap.NewBufferPool()
	r.SetBufferPool(pool)
	for {
		vs, err := r.ReadViews(512, 0, hint)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		pool.PutViews(vs)
	}
}

// packetLayers measures the ingest, decode, feature, flow and model
// layers on the corpus with the workload's pipeline. hint is the decode
// depth the engine asked the daemon's source for.
func (l *ladder) packetLayers(c *corpus, hint netpkt.DecodeHint) error {
	n := len(c.mix.Packets)
	if err := l.layer("pcap.read", "pkt", n, true, func() error { return readCapture(c.capture, netpkt.DecodeHint{}) }); err != nil {
		return err
	}
	var viewNS float64
	sp := l.root.Child("netpkt.view")
	var ns []float64
	for i := 0; i < ladderReps; i++ {
		t0 := time.Now()
		if err := readCapture(c.capture, hint); err != nil {
			return err
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	sp.Set("hint_headers", hint.Headers)
	sp.Set("hint_apps", int(hint.Apps))
	sp.End()
	viewNS = median(ns) - l.m["pcap.read_ns_per_pkt"]
	l.m["netpkt.view_ns_per_pkt"] = viewNS

	if err := l.layer("netpkt.decode", "pkt", n, true, func() error {
		for _, p := range c.mix.Packets {
			if netpkt.Decode(p.Data, c.mix.Link, p.Ts) == nil {
				return fmt.Errorf("nil decode")
			}
		}
		return nil
	}); err != nil {
		return err
	}

	if err := l.layer("dataset.source", "pkt", n, true, func() error {
		f, err := os.Open(c.capture)
		if err != nil {
			return err
		}
		defer f.Close()
		ps, err := dataset.NewPcapSource(c.capture, f, dataset.Packet)
		if err != nil {
			return err
		}
		defer ps.Close()
		ps.ConfigureViews(true, hint)
		got := 0
		for {
			ck, ok := ps.Next(512, 0)
			if !ok {
				break
			}
			got += ck.Len()
			ps.Recycle(ck)
		}
		if got != n {
			return fmt.Errorf("read %d of %d packets", got, n)
		}
		return ps.Err()
	}); err != nil {
		return err
	}

	fields := extractFields(c.pl)
	if err := l.layer("core.extract", "pkt", n, true, func() error {
		_, err := core.ExtractPacketFields(c.mix, fields)
		return err
	}); err != nil {
		return err
	}

	sums := make([]netpkt.PacketSummary, n)
	for i, p := range c.mix.Packets {
		sums[i] = p.Summary()
	}
	if err := l.layer("flow.conn", "pkt", n, true, func() error {
		a := flow.NewConnAssembler(flow.Options{})
		for i := range sums {
			a.AddSummary(i, sums[i])
		}
		a.Flush()
		return nil
	}); err != nil {
		return err
	}

	// The engine's streamed pass over the corpus with no daemon around
	// it; daemon overhead is the difference from the workload's pps.
	eng := core.NewEngine(c.pl)
	eng.Seed = c.seed
	if err := eng.Train(c.train); err != nil {
		return err
	}
	if err := l.layer("core.stream", "pkt", n, false, func() error {
		_, err := eng.RunStream(dataset.NewSliceSource(c.mix), core.ModeTest, c.wl.stream)
		return err
	}); err != nil {
		return err
	}

	// Stage stalls of the staged executor, on the workload's stream shape
	// when it is staged and at depth 2 otherwise.
	staged := c.wl.stream
	if staged.PipelineDepth == 0 {
		staged.PipelineDepth = 2
	}
	var stS, stO, stK, infl []float64
	sp = l.root.Child("core.staged")
	for i := 0; i < ladderReps; i++ {
		if _, err := eng.RunStream(dataset.NewSliceSource(c.mix), core.ModeTest, staged); err != nil {
			return err
		}
		ls := eng.LastStream
		stS = append(stS, float64(ls.SourceStallNS)/1e9)
		stO = append(stO, float64(ls.OpsStallNS)/1e9)
		stK = append(stK, float64(ls.SinkStallNS)/1e9)
		infl = append(infl, float64(ls.PeakInFlightBytes)/1e6)
	}
	sp.End()
	l.m["core.stall_source_s"] = median(stS)
	l.m["core.stall_ops_s"] = median(stO)
	l.m["core.stall_sink_s"] = median(stK)
	l.m["core.peak_inflight_mb"] = median(infl)

	// The train op's input matrix of the workload's pipeline, as the
	// model sees it.
	X, err := trainInput(eng, c.mix, c.wl.stream)
	if err != nil {
		return err
	}
	fr := core.NewFrame(len(X))
	for j := range X[0] {
		col := make([]float64, len(X))
		for i := range X {
			col[i] = X[i][j]
		}
		fr.AddF(fmt.Sprintf("f%d", j), col)
	}
	if err := l.layer("core.flatmatrix", "row", len(X), false, func() error {
		fr.FlatMatrix()
		return nil
	}); err != nil {
		return err
	}
	clf, ok := eng.TrainedModel()
	if !ok {
		return fmt.Errorf("engine has no trained model")
	}
	if err := l.layer("mlkit.predict", "row", len(X), false, func() error {
		clf.Predict(X)
		return nil
	}); err != nil {
		return err
	}
	if pc, ok := clf.(mlkit.ProbClassifier); ok {
		if err := l.layer("mlkit.proba", "row", len(X), false, func() error {
			pc.Proba(X)
			return nil
		}); err != nil {
			return err
		}
	} else {
		l.unmeasured["mlkit.proba_ns_per_row"] = fmt.Sprintf("%T has no Proba", clf)
	}
	return l.kitsune(c)
}

// kitsune measures the kitsune_features op per packet from the per-op
// profile of a streamed A06 pass over the corpus (Engine.Profile), the
// op's own wall time. Workloads whose pipeline has no kitsune op use
// the A06 pipeline, so the layer is measured on every workload's
// traffic.
func (l *ladder) kitsune(c *corpus) error {
	pl := c.pl
	if !hasOp(pl, "kitsune_features") {
		var err error
		if pl, err = algPipeline("A06")(); err != nil {
			return err
		}
	}
	eng := core.NewEngine(pl)
	eng.Seed = c.seed
	if err := eng.Train(c.train); err != nil {
		return err
	}
	n := len(c.mix.Packets)
	sp := l.root.Child("core.kitsune")
	defer sp.End()
	var ns []float64
	for i := 0; i < ladderReps; i++ {
		if _, err := eng.RunStream(dataset.NewSliceSource(c.mix), core.ModeTest, core.StreamConfig{ChunkRows: 512}); err != nil {
			return err
		}
		for _, op := range eng.Profile {
			if op.Func == "kitsune_features" {
				ns = append(ns, float64(op.Wall.Nanoseconds())/float64(n))
			}
		}
	}
	if len(ns) == 0 {
		return fmt.Errorf("core.kitsune: no kitsune_features op in the profile")
	}
	l.m["core.kitsune_ns_per_pkt"] = median(ns)
	return nil
}

func hasOp(pl *core.Pipeline, fn string) bool {
	for _, op := range pl.Ops {
		if op.Func == fn {
			return true
		}
	}
	return false
}

// extractFields returns the fields of the pipeline's field_extract op,
// or every registered packet field when it has none (Kitsune).
func extractFields(pl *core.Pipeline) []string {
	for _, op := range pl.Ops {
		if op.Func != "field_extract" {
			continue
		}
		if fs, ok := op.Params["fields"].([]string); ok {
			return fs
		}
		if raw, ok := op.Params["fields"].([]any); ok {
			var fs []string
			for _, f := range raw {
				if s, ok := f.(string); ok {
					fs = append(fs, s)
				}
			}
			return fs
		}
	}
	return core.PacketFields()
}

// trainInput collects the train op's per-chunk input rows of a streamed
// test pass.
func trainInput(eng *core.Engine, ds *dataset.Labeled, stream core.StreamConfig) ([][]float64, error) {
	var X [][]float64
	stream.Hooks = &core.StreamHooks{WantFeatures: true, AfterChunk: func(up core.ChunkUpdate) error {
		for _, row := range up.Features {
			X = append(X, append([]float64(nil), row...))
		}
		return nil
	}}
	if _, err := eng.RunStream(dataset.NewSliceSource(ds), core.ModeTest, stream); err != nil {
		return nil, err
	}
	if len(X) == 0 || len(X[0]) == 0 {
		return nil, fmt.Errorf("train op saw no feature rows")
	}
	return X, nil
}

// feedLayer drains a FeedSource by Next with no pipeline while one
// producer sends the corpus at rate (0 = unpaced), and returns the
// generator's per-tick lateness.
func feedLayer(c *corpus, rate float64) ([]float64, error) {
	g := c.generator(rate)
	in, err := c.feedIngest(g)
	if err != nil {
		return nil, err
	}
	done := make(chan error, 1)
	go func() {
		_, err := in.run()
		done <- err
	}()
	got := 0
	for got < c.n {
		ck, ok := in.src.Next(512, 0)
		if !ok {
			break
		}
		got += ck.Len()
	}
	in.src.(daemon.Drainer).Drain() // feedIngest's source is a *daemon.FeedSource
	for {
		if _, ok := in.src.Next(512, 0); !ok {
			break
		}
	}
	if err := <-done; err != nil {
		return nil, err
	}
	if got != c.n {
		return nil, fmt.Errorf("feed delivered %d of %d packets", got, c.n)
	}
	return g.late, nil
}

// daemonLayers measures the daemon-level layers: feed and watch ingest
// on their own, the alert sink, the share of time in Source.Next, and
// the tracing overhead, from daemon passes over the workload's ingest.
func (l *ladder) daemonLayers(e *env, c *corpus, mk func() (ingest, error)) (netpkt.DecodeHint, error) {
	n := len(c.mix.Packets)
	var hint netpkt.DecodeHint

	// The wrapped source must keep the decode path of the bare one.
	in, err := mk()
	if err != nil {
		return hint, err
	}
	bare, _, err := c.runPass(in, daemonOpts{noProbe: true})
	if err != nil {
		bare.err = err
	}
	c.verify(&e.tally, bare, nil, nil)

	type arm struct {
		name string
		o    daemonOpts
		wall []float64
	}
	arms := []*arm{{name: "untraced"}, {name: "traced", o: daemonOpts{tracer: l.tr}}, {name: "no-alerts", o: daemonOpts{noAlerts: true}}}
	var share, writeNS, bPerLine, lines []float64
	modes := map[string]bool{}
	for i := 0; i < ladderReps; i++ {
		for _, a := range arms {
			in, err := mk()
			if err != nil {
				return hint, err
			}
			sp := l.root.Child("daemon.pass:" + a.name)
			r, p, err := c.runPass(in, a.o)
			sp.End()
			if err != nil {
				r.err = err
			}
			c.verify(&e.tally, r, nil, nil)
			if r.err != nil {
				continue
			}
			a.wall = append(a.wall, p.wall.Seconds())
			modes[r.status.DecodeMode] = true
			if a.name != "traced" {
				continue
			}
			hint = r.probe.hint
			share = append(share, r.probe.inNext.Seconds()/p.wall.Seconds())
			if k := len(r.sink.times); k > 0 {
				writeNS = append(writeNS, float64(r.sink.inWrite.Nanoseconds())/float64(k))
				if nl := bytes.Count(r.sink.buf, []byte{'\n'}); nl > 0 {
					bPerLine = append(bPerLine, float64(len(r.sink.buf))/float64(nl))
					lines = append(lines, float64(nl))
				}
			}
		}
	}
	same := 0
	if len(modes) != 1 || !modes[bare.status.DecodeMode] {
		same = 1
	}
	var ms []string
	for m := range modes {
		ms = append(ms, fmt.Sprintf("%q", m))
	}
	sort.Strings(ms)
	e.tally.check(1, same, "%s: decode mode %v with the probe, %q without", c.wl.name, ms, bare.status.DecodeMode)
	l.root.Set("decode_mode", bare.status.DecodeMode)
	for _, a := range arms {
		if len(a.wall) == 0 {
			return hint, fmt.Errorf("%s: no %s pass completed", c.wl.name, a.name)
		}
	}
	un, tr, na := median(arms[0].wall), median(arms[1].wall), median(arms[2].wall)
	// (untraced - traced) / untraced pps, with pps = n / wall.
	l.m["obs.trace_overhead"] = 1 - un/tr
	l.m["dataset.next_share"] = median(share)
	if len(writeNS) > 0 {
		l.m["daemon.sink_write_ns"] = median(writeNS)
		l.m["daemon.sink_b_per_line"] = median(bPerLine)
		l.m["daemon.alert_ns_per_line"] = (un - na) * 1e9 / median(lines)
	} else {
		for _, k := range []string{"daemon.sink_write_ns", "daemon.sink_b_per_line", "daemon.alert_ns_per_line"} {
			l.unmeasured[k] = "the pass wrote no alert lines"
		}
	}

	if err := l.layer("daemon.feed", "pkt", n, true, func() error {
		_, err := feedLayer(c, 0)
		return err
	}); err != nil {
		return hint, err
	}
	sp := l.root.Child("daemon.gen_late")
	late, err := feedLayer(c, openRate)
	sp.End()
	if err != nil {
		return hint, err
	}
	l.m["daemon.gen_late_ms"] = quantile(late, 0.99)

	sp = l.root.Child("daemon.watch_discover")
	var disc []float64
	for i := 0; i < ladderReps; i++ {
		src := daemon.NewDirSource("watch", c.watchDir, "*.pcap", dataset.Packet, c.mix.Link, watchPoll)
		src.ConfigureViews(true, hint)
		t0 := time.Now()
		ck, ok := src.Next(512, 0)
		disc = append(disc, durMS(time.Since(t0)))
		if !ok || ck.Len() == 0 {
			return hint, fmt.Errorf("watch delivered no chunk (err %v)", src.Err())
		}
		src.Recycle(ck)
		ck.ReleaseRef()
		src.Drain()
		for {
			ck, ok := src.Next(512, 0)
			if !ok {
				break
			}
			src.Recycle(ck)
			ck.ReleaseRef()
		}
	}
	sp.End()
	l.m["daemon.watch_discover_ms"] = median(disc)
	return hint, nil
}

// The daemon workloads measure the suite layer on a slice of Fig. 5:
// one nPrint+AutoML algorithm, the two packet algorithms the daemon
// workloads run, and two connection algorithms that share flow features
// (so the shared cache has something to serve), on the packet corpora
// of the mix and one connection corpus.
var (
	sliceAlgs     = []string{"A01", "A05", "A06", "A07", "A08"}
	sliceDatasets = append([]string{"F1"}, mixParts...)
)

// suiteLayers reads the suite-level layers off one suite pass: the
// median run time, nPrint+AutoML's share of run time, worker
// utilization, and the shared cache's hit ratio from Config.Metrics.
func (l *ladder) suiteLayers(sp suitePass, m *obs.Metrics) {
	var runs []float64
	var nprint, total float64
	for _, r := range sp.suite.Store.Results {
		s := r.Wall.Seconds()
		runs = append(runs, s)
		total += s
		switch r.Alg {
		case "A01", "A02", "A03", "A04":
			nprint += s
		}
	}
	l.m["benchsuite.run_s_p50"] = median(runs)
	l.m["benchsuite.nprint_automl_share"] = nprint / total
	l.m["benchsuite.worker_util"] = m.Gauge("lumen_worker_utilization", "").Value()
	hits := float64(m.Counter("lumen_cache_hits_total", "").Value())
	misses := float64(m.Counter("lumen_cache_misses_total", "").Value())
	l.m["core.cache_hit_ratio"] = hits / (hits + misses)
}

// fig5Slice runs the suite layer of a daemon workload on the Fig. 5
// slice, at the suite's scale.
func (l *ladder) fig5Slice(e *env) error {
	m := obs.NewMetrics()
	sp := l.root.Child("benchsuite.slice")
	cfg := benchsuite.Config{Scale: suiteScale, Seed: e.seed, AlgIDs: sliceAlgs, DatasetIDs: sliceDatasets, Metrics: m, Tracer: l.tr}
	s, err := benchsuite.New(cfg)
	if err != nil {
		return err
	}
	s.RunSameDataset()
	s.Finish()
	sp.End()
	for _, r := range s.Store.Results {
		bad := 0
		if r.Err != "" {
			bad = 1
		}
		e.tally.check(1, bad, "suite run %s failed: %s", runKey(r), r.Err)
	}
	l.suiteLayers(suitePass{suite: s}, m)
	return nil
}

// finish closes the root span, writes the trace and the self-time
// table, and returns the metrics.
func (l *ladder) finish(e *env, workload string) map[string]float64 {
	l.root.End()
	spans := l.tr.Spans()
	if err := os.MkdirAll(filepath.Join(".bench_build", "traces"), 0o755); err == nil {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", workload, e.seed))
		if err := l.tr.WriteJSONLFile(path); err == nil {
			logf("trace written to %s", path)
		}
	}
	// Self time: a span's duration minus the union of its children's
	// intervals.
	kids := map[int64][]obs.SpanRecord{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	var root obs.SpanRecord
	for _, s := range spans {
		if s.Parent == 0 && s.Name == "perfbench:"+workload {
			root = s
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %12s %12s\n", "span (benchmark's own)", "total_ms", "self_ms")
	for _, s := range append([]obs.SpanRecord{root}, kids[root.ID]...) {
		fmt.Fprintf(&b, "%-40s %12.3f %12.3f\n", s.Name, float64(s.DurNS)/1e6, float64(selfNS(s, kids[s.ID]))/1e6)
	}
	fmt.Fprint(os.Stderr, b.String())
	for k, why := range l.unmeasured {
		logf("unmeasured %s: %s", k, why)
	}
	return l.m
}

// selfNS is s's duration minus the part of it its children cover.
func selfNS(s obs.SpanRecord, kids []obs.SpanRecord) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	covered, end := int64(0), s.StartNS
	for _, k := range kids {
		lo, hi := max(k.StartNS, end), min(k.StartNS+k.DurNS, s.StartNS+s.DurNS)
		if hi > lo {
			covered += hi - lo
			end = hi
		}
	}
	return s.DurNS - covered
}

func replayTraced(e *env) (map[string]float64, error) {
	c, err := prepare(e, replayWL, true)
	if err != nil {
		return nil, err
	}
	return daemonTraced(e, c, c.replayIngest)
}

func watchTraced(e *env) (map[string]float64, error) {
	c, err := prepare(e, watchWL, true)
	if err != nil {
		return nil, err
	}
	return daemonTraced(e, c, func() (ingest, error) { return c.watchIngest(), nil })
}

func feedTraced(e *env) (map[string]float64, error) {
	c, err := prepare(e, feedWL, true)
	if err != nil {
		return nil, err
	}
	return daemonTraced(e, c, func() (ingest, error) {
		return c.feedIngest(c.generator(0))
	})
}

// daemonTraced is the traced run of a daemon workload: the daemon
// layers on its ingest, the packet layers on its corpus, and the suite
// layer on the Fig. 5 slice.
func daemonTraced(e *env, c *corpus, mk func() (ingest, error)) (map[string]float64, error) {
	l := newLadder(c.wl.name)
	hint, err := l.daemonLayers(e, c, mk)
	if err != nil {
		return nil, err
	}
	if err := l.packetLayers(c, hint); err != nil {
		return nil, err
	}
	if err := l.fig5Slice(e); err != nil {
		return nil, err
	}
	return l.finish(e, c.wl.name), nil
}

// suiteTraced is the traced run of the suite workload: one untraced and
// one traced Fig. 5 pass give the suite layers and the tracing
// overhead; the packet and daemon layers are measured on the replay
// workload's corpus and pipeline (A05, one of the suite's packet
// algorithms, on the same registry corpora).
func suiteTraced(e *env) (map[string]float64, error) {
	seed := int64(suiteSeed)
	ref, err := suiteRef()
	if err != nil {
		return nil, err
	}
	l := newLadder("suite-fig5")
	sp := l.root.Child("benchsuite.untraced")
	un := runSuite(seed, nil, nil)
	sp.End()
	if un.err != nil {
		return nil, un.err
	}
	checkSuite(&e.tally, un.suite.Store.Results, ref)
	m := obs.NewMetrics()
	sp = l.root.Child("benchsuite.traced")
	tr := runSuite(seed, m, l.tr)
	sp.End()
	if tr.err != nil {
		return nil, tr.err
	}
	checkSuite(&e.tally, tr.suite.Store.Results, ref)
	l.suiteLayers(tr, m)
	overhead := 1 - un.pass.wall.Seconds()/tr.pass.wall.Seconds()

	c, err := prepare(e, replayWL, true)
	if err != nil {
		return nil, err
	}
	hint, err := l.daemonLayers(e, c, c.replayIngest)
	if err != nil {
		return nil, err
	}
	if err := l.packetLayers(c, hint); err != nil {
		return nil, err
	}
	l.m["obs.trace_overhead"] = overhead
	return l.finish(e, "suite-fig5"), nil
}
