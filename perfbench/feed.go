package main

import (
	"bufio"
	"net"
	"os"
	"syscall"
	"time"

	"lumen/internal/daemon"
)

// openRate is the feed workload's open-loop send rate in packets per
// second, about a sixth of the unpaced capacity measured when the
// benchmark was defined (about 300k pps on a 2-CPU host, generator in
// the same process), so the pipeline keeps up and latency reflects
// per-packet work, not a backlog.
const openRate = 50000

// genTick is the open-loop generator's tick: every tick it writes every
// frame that has come due, then flushes once. Sleeping between ticks
// (never spinning) keeps the generator's CPU use proportional to the
// rate, so it does not compete with the pipeline for the host's cores.
const genTick = 250 * time.Microsecond

// generator sends the corpus as framed packets over one connection.
type generator struct {
	// frames is the encoded stream; frame i ends at ends[i].
	frames []byte
	ends   []int
	// rate is packets per second; 0 sends unpaced.
	rate float64
	// start is when the first frame was due; late holds, per tick, how
	// far behind its schedule the generator wrote (ms).
	start time.Time
	late  []float64
}

// sched returns when packet i was due to be sent.
func (g *generator) sched(i int) time.Time {
	return g.start.Add(time.Duration(float64(i) / g.rate * 1e9))
}

// run connects to addr, sends every packet, and closes the connection.
// It returns the time the first frame was due.
func (g *generator) run(addr string) (time.Time, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return time.Time{}, err
	}
	defer conn.Close()
	w := bufio.NewWriterSize(conn, 64<<10)
	g.start = time.Now()
	if g.rate <= 0 {
		if _, err := w.Write(g.frames); err != nil {
			return g.start, err
		}
		return g.start, w.Flush()
	}
	n, off := len(g.ends), 0
	for i := 0; i < n; {
		now := time.Now()
		due := int(now.Sub(g.start).Seconds()*g.rate) + 1
		if due > n {
			due = n
		}
		if i < due {
			g.late = append(g.late, durMS(now.Sub(g.sched(i))))
			if _, err := w.Write(g.frames[off:g.ends[due-1]]); err != nil {
				return g.start, err
			}
			off, i = g.ends[due-1], due
			if err := w.Flush(); err != nil {
				return g.start, err
			}
		}
		if i < n {
			time.Sleep(time.Until(now.Add(genTick)))
		}
	}
	return g.start, nil
}

// encodeFeed writes the mix as FeedSource frames to path and maps the
// file for the generators.
func (c *corpus) encodeFeed(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	off := 0
	for _, p := range c.mix.Packets {
		if err := daemon.WriteFrame(w, p.Ts, p.Data); err != nil {
			return err
		}
		off += 12 + len(p.Data) // WriteFrame's length and timestamp header, then the packet
		c.feedEnds = append(c.feedEnds, off)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	c.feed, err = syscall.Mmap(int(f.Fd()), 0, off, syscall.PROT_READ, syscall.MAP_SHARED)
	return err
}

// generator returns a producer of the corpus at rate (0 = unpaced).
func (c *corpus) generator(rate float64) *generator {
	return &generator{frames: c.feed, ends: c.feedEnds, rate: rate}
}

// feedIngest starts a FeedSource on a loopback listener, the way lumend
// -listen-feed does, with g as its one producer.
func (c *corpus) feedIngest(g *generator) (ingest, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return ingest{}, err
	}
	addr := ln.Addr().String()
	// 1024 packets of queue ahead of the pipeline, lumend's setting.
	src := daemon.NewFeedSource("feed:"+addr, ln, c.link, 1024)
	return ingest{src: src, run: func() (time.Time, error) { return g.run(addr) }}, nil
}

// feedTimed runs the two feed phases back to back, each for half the
// run: open loop at openRate for latency, then unpaced for throughput
// and the per-pass resource metrics.
func feedTimed(e *env) (map[string]float64, error) {
	c, err := prepare(e, feedWL, false)
	if err != nil {
		return nil, err
	}
	var late []float64
	open, err := c.loop(e, e.seconds/2, func() (ingest, error) {
		g := c.generator(openRate)
		in, err := c.feedIngest(g)
		in.sched = g.sched
		in.close = func() { late = append(late, g.late...) }
		return in, err
	})
	if err != nil {
		return nil, err
	}
	closed, err := c.loop(e, e.seconds/2, func() (ingest, error) {
		return c.feedIngest(c.generator(0))
	})
	if err != nil {
		return nil, err
	}
	closed.start = append(closed.start, open.start...)
	m := closed.metrics(c)
	m["lat_p50_ms"] = fastest(open.p50)
	logLatency(c.wl.name+" open loop", open)
	logf("feed-open: generator late p99 %.3f ms at %d pps", quantile(late, 0.99), openRate)
	return m, nil
}
