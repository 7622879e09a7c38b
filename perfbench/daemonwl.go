package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"lumen/internal/algorithms"
	"lumen/internal/core"
	"lumen/internal/daemon"
	"lumen/internal/dataset"
	"lumen/internal/netpkt"
	"lumen/internal/obs"
)

// hotSwapPipeline is the template of examples/daemon-hot-swap, the
// pipeline the feed workload scores with. It is copied here so that an
// edit to the example does not silently change the benchmark.
const hotSwapPipeline = `{
  "name": "hot-swap-demo",
  "granularity": "packet",
  "ops": [
    {"func": "field_extract", "input": ["$packets"], "output": "X",
     "params": {"fields": ["ts", "len", "ttl", "dst_port", "tcp_syn", "iat"]}},
    {"func": "log_scale", "input": ["X"], "output": "Xlog"},
    {"func": "model", "output": "m",
     "params": {"model_type": "decision_tree", "max_depth": 6}},
    {"func": "train", "input": ["m", "Xlog"], "output": "fit"}
  ]
}`

// trainShare is the share of a run's timed phase spent training engines
// for set-up samples.
const trainShare = 0.25

// minPasses is the fewest timed passes a run makes, however long each
// takes, so that every reported quantile has at least this many samples.
const minPasses = 5

// passTimeout bounds one daemon pass; a pass that runs longer is failed.
const passTimeout = 60 * time.Second

// daemonWorkload is one daemon workload's fixed configuration.
type daemonWorkload struct {
	name          string
	pipeline      func() (*core.Pipeline, error)
	stream        core.StreamConfig
	anomaliesOnly bool
	connLog       bool
}

var (
	replayWL = daemonWorkload{
		name:     "replay-smarthome",
		pipeline: algPipeline("A05"),
		stream:   core.StreamConfig{ChunkRows: 512},
		connLog:  true,
	}
	watchWL = daemonWorkload{
		name:          "watch-kitsune",
		pipeline:      algPipeline("A06"),
		stream:        core.StreamConfig{ChunkRows: 512, PipelineDepth: 2},
		anomaliesOnly: true,
	}
	feedWL = daemonWorkload{
		name:     "feed-open",
		pipeline: func() (*core.Pipeline, error) { return core.ParsePipeline([]byte(hotSwapPipeline)) },
		stream:   core.StreamConfig{ChunkRows: 512},
	}
)

func algPipeline(id string) func() (*core.Pipeline, error) {
	return func() (*core.Pipeline, error) {
		a, ok := algorithms.Get(id)
		if !ok {
			return nil, fmt.Errorf("no algorithm %s", id)
		}
		return a.Pipeline, nil
	}
}

// corpus is a daemon workload's prepared input: the scored traffic, the
// training traffic, the reference verdicts, and the files ingest reads.
type corpus struct {
	wl daemonWorkload
	pl *core.Pipeline
	// seed is the engines' Engine.Seed.
	seed int64
	n    int
	link netpkt.LinkType
	// mix and train are the scored and the training traffic. The mix is
	// kept only for the traced ladder: timed passes do not hold it in the
	// heap (the feed's encoded frames are mapped outside it). The
	// training traffic is kept for the trainings between passes; it and
	// the rest of what the benchmark holds is taken out of peak_heap_mb
	// (see ownedBytes).
	mix   *dataset.Labeled
	train *dataset.Labeled
	ref   *reference
	// feed is the mix encoded as FeedSource frames, one frame per packet
	// ending at feedEnds[i]. It is a read-only mapping of a file, outside
	// the Go heap, so the generator's data does not count as the
	// program's live heap.
	feed     []byte
	feedEnds []int
	// trainBytes is the heap the training traffic holds.
	trainBytes uint64
	// sink is the alert writer, reused by every pass.
	sink *sink
	// engine is the trained engine every pass scores with; trainTime
	// holds the seconds each training (of it and the later ones the
	// passes interleave) took.
	engine    *core.Engine
	trainTime []float64
	// capture is the single capture file (replay); watchDir holds the
	// rotated captures (watch).
	capture  string
	watchDir string
}

// watchFiles is how many rotated captures the watch workload reads.
const watchFiles = 8

// prepare builds the workload's inputs from the seed: corpus generation,
// capture writing and the reference run. None of it is timed.
func prepare(e *env, wl daemonWorkload, keepMix bool) (*corpus, error) {
	pl, err := wl.pipeline()
	if err != nil {
		return nil, err
	}
	c := &corpus{wl: wl, pl: pl, seed: engineSeed}
	if c.mix, err = buildMix(e.seed, mixScale, mixBlocks); err != nil {
		return nil, err
	}
	c.n, c.link = len(c.mix.Packets), c.mix.Link
	c.sink = newSink(c.n)
	if wl.name == feedWL.name || keepMix {
		if err := c.encodeFeed(e.scratch("feed.frames")); err != nil {
			return nil, err
		}
	}
	c.trainBytes = heapOf(func() { c.train, err = buildMix(engineSeed, trainScale, 1) })
	if err != nil {
		return nil, err
	}
	c.capture = e.scratch("capture.pcap")
	if err := writePcap(c.capture, c.mix.Link, c.mix.Packets); err != nil {
		return nil, err
	}
	c.watchDir = e.scratch("watch")
	if wl.name == watchWL.name || keepMix {
		if err := writeRotated(c.watchDir, c.mix.Link, c.mix.Packets, watchFiles); err != nil {
			return nil, err
		}
	}
	// Replay and watch read the capture, whose timestamps pcap stores in
	// microseconds; feed frames carry the generated nanoseconds.
	refDS := c.mix
	if wl.name != feedWL.name {
		if refDS, err = readBack(c.capture); err != nil {
			return nil, err
		}
	}
	if c.ref, err = newReference(pl, c.seed, c.train, refDS); err != nil {
		return nil, err
	}
	if c.engine, err = c.trainEngine(); err != nil {
		return nil, err
	}
	if !keepMix {
		c.mix = nil
	}
	return c, nil
}

// trainEngine builds and trains an engine the way lumend does at
// start-up, and records the time it took as a set-up sample. It starts
// from a collected heap, so a GC cycle owed by earlier work does not
// land in it.
func (c *corpus) trainEngine() (*core.Engine, error) {
	runtime.GC()
	t0 := time.Now()
	d := daemon.New(daemon.Config{Metrics: obs.NewMetrics()})
	eng := core.NewEngine(c.pl)
	eng.Seed = c.seed
	eng.Metrics = d.Metrics()
	if err := eng.Train(c.train); err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	c.trainTime = append(c.trainTime, time.Since(t0).Seconds())
	return eng, nil
}

// ownedBytes is the heap the benchmark itself holds during a timed pass:
// the alert sink's buffers, the reference it checks against and the
// training traffic. It is taken out of each pass's live-heap high-water
// mark, so peak_heap_mb is the program's heap (trained engine, daemon,
// stream state) alone.
func (c *corpus) ownedBytes() uint64 {
	return c.sink.capBytes() + uint64(8*cap(c.ref.pred)+cap(c.ref.connLog)+8*cap(c.feedEnds)) + c.trainBytes
}

// ingest is how one pass feeds the daemon: src is the source to start
// the pipeline on; run (optional) drives traffic after Start and
// returns when the last packet was handed over, with the pass start
// time (without run, a pass starts at the first Next call); finite
// reports that the source ends by itself (replay), so the pass waits
// for the pipeline to stop instead of draining it once every verdict is
// counted.
type ingest struct {
	src    dataset.Source
	run    func() (time.Time, error)
	finite bool
	close  func()
	// sched, when set, gives each packet's scheduled send time, from
	// which its latency counts (open-loop feed).
	sched func(int) time.Time
}

// passResult is what one daemon pass produced.
type passResult struct {
	// startup is how long Daemon.Start took.
	startup time.Duration
	start   time.Time
	end     time.Time
	status  daemon.PipeStatus
	probe   *probe
	sink    *sink
	conn    *bytes.Buffer
	err     error
}

// daemonOpts varies a pass for the traced ladder.
type daemonOpts struct {
	tracer   *obs.Tracer
	noAlerts bool
	// noProbe starts the pipeline on the bare source, to compare its
	// decode mode with the wrapped one's.
	noProbe bool
}

// runPass starts a daemon pipeline with the trained engine on the
// ingest, waits until every packet has a verdict, and drains. A daemon
// pipeline takes a trained engine as it is, so every pass scoring with
// the same engine does the same work (and every pass's verdicts are
// checked).
func (c *corpus) runPass(in ingest, o daemonOpts) (passResult, pass, error) {
	var r passResult
	d := daemon.New(daemon.Config{Metrics: obs.NewMetrics(), Tracer: o.tracer})
	eng := c.engine
	eng.Metrics = d.Metrics()

	pr, src := newProbe(in.src)
	if o.noProbe {
		pr, src = nil, in.src
	}
	r.probe = pr
	n := c.n
	cfg := daemon.PipeConfig{
		Name:          c.wl.name,
		Engine:        eng,
		Source:        src,
		Stream:        c.wl.stream,
		AnomaliesOnly: c.wl.anomaliesOnly,
	}
	if !o.noAlerts {
		r.sink = c.sink
		r.sink.reset()
		cfg.Alerts = r.sink
	}
	if c.wl.connLog {
		r.conn = &bytes.Buffer{}
		cfg.ConnLog = r.conn
	}
	ps, err := timePass(func() (time.Duration, error) {
		t1 := time.Now()
		p, err := d.Start(cfg)
		if err != nil {
			if dr, ok := in.src.(daemon.Drainer); ok {
				dr.Drain()
			}
			return 0, err
		}
		r.startup = time.Since(t1)
		type genResult struct {
			start time.Time
			err   error
		}
		gen := make(chan genResult, 1)
		if in.run != nil {
			go func() {
				start, err := in.run()
				gen <- genResult{start, err}
			}()
		}
		polled, err := waitVerdicts(p, int64(n), in.finite)
		if derr := d.DrainAll(); derr != nil && err == nil {
			err = derr
		}
		r.status = p.Status()
		if in.run != nil {
			g := <-gen
			if g.err != nil && err == nil {
				err = fmt.Errorf("traffic generator: %w", g.err)
			}
			r.start = g.start
		}
		if r.start.IsZero() {
			r.start = t1
			if pr != nil {
				r.start = pr.first
			}
		}
		r.end = polled
		if r.sink != nil && r.sink.last().After(r.end) {
			r.end = r.sink.last()
		}
		return r.end.Sub(r.start), err
	})
	if in.close != nil {
		in.close()
	}
	ps.peak -= min(ps.peak, c.ownedBytes())
	return r, ps, err
}

// waitVerdicts polls the pipeline until it has counted n verdicts and
// returns when it saw that. A finite source is also waited out to its
// natural end; a pipeline that stops early or stalls is an error.
func waitVerdicts(p *daemon.Pipe, n int64, finite bool) (time.Time, error) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	deadline := time.Now().Add(passTimeout)
	for {
		if p.Status().Verdicts >= n {
			at := time.Now()
			if finite {
				<-p.Done()
			}
			return at, nil
		}
		select {
		case <-p.Done():
			st := p.Status()
			if st.Verdicts >= n {
				return time.Now(), nil
			}
			return time.Now(), fmt.Errorf("pipeline %s after %d of %d verdicts: %s", st.State, st.Verdicts, n, st.Error)
		case <-tick.C:
		}
		if time.Now().After(deadline) {
			return time.Now(), fmt.Errorf("pass timed out after %v with %d of %d verdicts", passTimeout, p.Status().Verdicts, n)
		}
	}
}

// replayIngest opens the capture through the mmap+lazy PcapSource,
// unpaced.
func (c *corpus) replayIngest() (ingest, error) {
	f, err := os.Open(c.capture)
	if err != nil {
		return ingest{}, err
	}
	ps, err := dataset.NewPcapSource(c.capture, f, dataset.Packet)
	if err != nil {
		f.Close()
		return ingest{}, err
	}
	return ingest{
		src:    daemon.NewReplaySource(ps, 0),
		finite: true,
		close:  func() { ps.Close(); f.Close() },
	}, nil
}

// watchPoll is the watch's directory poll interval. lumend's default
// (500ms) would add idle time to every pass of a benchmark whose files
// are all in place before the pass starts; the interval is an operator
// setting (-watch-poll), so the benchmark sets a short one.
const watchPoll = 5 * time.Millisecond

func (c *corpus) watchIngest() ingest {
	return ingest{src: daemon.NewDirSource("watch:"+c.watchDir, c.watchDir, "*.pcap", dataset.Packet, c.link, watchPoll)}
}

// verify checks one pass: the pipeline stopped cleanly, every packet
// got exactly the reference verdict (with anomalies-only sinks, exactly
// the reference anomalies have lines), and the conn-log is the batch
// one. It adds to lat (when not nil) the latency of every alert line:
// from when the packet left the source (or, given sched, from its
// scheduled send) to the Write that carried its line.
func (c *corpus) verify(t *tally, r passResult, sched func(int) time.Time, lat *latHist) {
	n := c.n
	if r.err != nil {
		t.check(n, n, "%s pass: %v", c.wl.name, r.err)
		return
	}
	if r.status.State != "stopped" {
		t.check(n, n, "%s pipeline ended %s: %s", c.wl.name, r.status.State, r.status.Error)
		return
	}
	if r.status.Verdicts != int64(n) {
		t.check(n, n, "%s: %d verdicts for %d packets", c.wl.name, r.status.Verdicts, n)
		return
	}
	if r.sink == nil {
		// Without an alert sink only the verdict counter was checked.
		t.check(1, 0, "")
		return
	}
	seen := make([]int, n)
	wrong := 0
	err := r.sink.each(func(idx, pred int, at time.Time) {
		if idx < 0 || idx >= n {
			wrong++
			return
		}
		seen[idx]++
		if pred != c.ref.pred[idx] {
			wrong++
		}
		if lat == nil {
			return
		}
		var from time.Time
		ok := false
		switch {
		case sched != nil:
			from, ok = sched(idx), true
		case r.probe != nil:
			from, ok = r.probe.servedAt(idx)
		}
		if ok {
			lat.add(durMS(at.Sub(from)))
		}
	})
	if err != nil {
		t.check(n, n, "%s: %v", c.wl.name, err)
		return
	}
	bad := wrong
	for i, k := range seen {
		want := 1
		if c.wl.anomaliesOnly && c.ref.pred[i] != 1 {
			want = 0
		}
		if k != want {
			bad++
		}
	}
	t.check(n, bad, "%s: %d wrong verdicts, %d packets with missing or extra alert lines", c.wl.name, wrong, bad-wrong)
	if r.conn != nil {
		same := 0
		if !bytes.Equal(r.conn.Bytes(), c.ref.connLog) {
			same = 1
		}
		t.check(1, same, "%s: conn-log differs from flow.Connections over the capture", c.wl.name)
	}
}

// samples are the measurements of a run's timed passes.
type samples struct {
	passes []pass
	// start, pps and p50 hold each pass's Daemon.Start time, packet
	// rate and median alert latency.
	start, pps, p50 []float64
	// lat pools every pass's alert latencies.
	lat *latHist
}

// loop repeats a pass until budget is spent (and at least minPasses
// times), verifying each. Between passes it trains more engines (and
// discards them) while trainings have taken less than trainShare of the
// run, so that set-up is sampled across the whole run like the passes.
func (c *corpus) loop(e *env, budget time.Duration, mk func() (ingest, error)) (samples, error) {
	s := samples{lat: &latHist{}}
	t0 := time.Now()
	var trained float64
	for len(s.passes) < minPasses || time.Since(t0) < budget {
		for trained < trainShare*time.Since(t0).Seconds() {
			if _, err := c.trainEngine(); err != nil {
				return s, err
			}
			trained += c.trainTime[len(c.trainTime)-1]
		}
		in, err := mk()
		if err != nil {
			return s, err
		}
		r, p, err := c.runPass(in, daemonOpts{})
		if err != nil {
			r.err = err
		}
		lat := &latHist{}
		c.verify(&e.tally, r, in.sched, lat)
		s.lat.merge(lat)
		if r.err != nil {
			if e.tally.failed > 10*c.n {
				return s, fmt.Errorf("%s: passes keep failing: %v", c.wl.name, r.err)
			}
			continue
		}
		s.passes = append(s.passes, p)
		s.start = append(s.start, r.startup.Seconds())
		s.pps = append(s.pps, float64(c.n)/p.wall.Seconds())
		if lat.n > 0 {
			s.p50 = append(s.p50, lat.quantile(0.5))
		}
	}
	var peak uint64
	for _, p := range s.passes {
		peak = max(peak, p.peak)
	}
	logf("%s: %d passes of %d packets, %d trainings; largest pass peak heap %.1f MB; %.1f MB of benchmark-held heap left out of peak_heap_mb",
		c.wl.name, len(s.passes), c.n, len(c.trainTime), float64(peak)/1e6, float64(c.ownedBytes())/1e6)
	return s, nil
}

// metrics reports the run's end-to-end metrics: timings of the passes
// the host ran at full speed (see fastest), the median alloc and peak
// heap of a pass. Set-up is the training time plus the Daemon.Start
// time, each over the run's samples.
func (s samples) metrics(c *corpus) map[string]float64 {
	m := map[string]float64{
		"setup_s": fastest(c.trainTime) + fastest(s.start),
		"pps":     quantile(s.pps, 1-fastQ),
	}
	passMetrics(s.passes, m)
	return m
}

// logLatency prints the alert latency, which the daemon workloads report
// but do not gate on (see NOTES.md): the fastest twentieth of the
// per-pass medians, and the p99 over every pass.
func logLatency(name string, s samples) {
	logf("%s: lat_p50_ms %.3f, lat_p99_ms %.3f (reported, not gated)", name, fastest(s.p50), s.lat.quantile(0.99))
}

func replayTimed(e *env) (map[string]float64, error) {
	c, err := prepare(e, replayWL, false)
	if err != nil {
		return nil, err
	}
	s, err := c.loop(e, e.seconds, c.replayIngest)
	logLatency(c.wl.name, s)
	return s.metrics(c), err
}

func watchTimed(e *env) (map[string]float64, error) {
	c, err := prepare(e, watchWL, false)
	if err != nil {
		return nil, err
	}
	s, err := c.loop(e, e.seconds, func() (ingest, error) { return c.watchIngest(), nil })
	logLatency(c.wl.name, s)
	return s.metrics(c), err
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
