package main

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"time"

	"lumen/internal/daemon"
	"lumen/internal/dataset"
	"lumen/internal/netpkt"
)

// probe is a forwarding dataset.Source that records when each chunk
// left the source and how long the consumer spent inside Next. It
// forwards every optional capability the daemon and the engine look for
// (ViewSource, Recycler, Drainer, DecodeMode, Err, Reset and, through
// labeledProbe, Labeled), so wrapping a source never moves a pass off
// the zero-copy fast path; the benchmark asserts this by comparing
// PipeStatus.DecodeMode with and without the wrapper.
//
// Next runs on one goroutine at a time (the scoring loop or the staged
// pipeline's source stage); the recorded fields are read only after the
// pipeline has stopped.
type probe struct {
	inner  dataset.Source
	first  time.Time
	inNext time.Duration
	marks  []mark
	// hint is the decode depth the engine asked the source for.
	hint netpkt.DecodeHint
}

// mark is one non-empty chunk: when Next returned it, and which global
// packet indices it carried.
type mark struct {
	at   time.Time
	base int
	n    int
}

// newProbe wraps src, keeping its Labeled capability when it has one.
func newProbe(src dataset.Source) (*probe, dataset.Source) {
	p := &probe{inner: src}
	if l, ok := src.(interface{ Labeled() *dataset.Labeled }); ok {
		return p, &labeledProbe{probe: p, l: l}
	}
	return p, p
}

type labeledProbe struct {
	*probe
	l interface{ Labeled() *dataset.Labeled }
}

func (p *labeledProbe) Labeled() *dataset.Labeled { return p.l.Labeled() }

func (p *probe) Meta() dataset.SourceMeta { return p.inner.Meta() }

func (p *probe) Reset() error { return p.inner.Reset() }

func (p *probe) Next(maxRows, maxBytes int) (dataset.Chunk, bool) {
	t0 := time.Now()
	ck, ok := p.inner.Next(maxRows, maxBytes)
	t1 := time.Now()
	if p.first.IsZero() {
		p.first = t0
	}
	p.inNext += t1.Sub(t0)
	if ok && ck.Len() > 0 {
		p.marks = append(p.marks, mark{at: t1, base: ck.Base, n: ck.Len()})
	}
	return ck, ok
}

func (p *probe) ConfigureViews(on bool, hint netpkt.DecodeHint) bool {
	vs, ok := p.inner.(dataset.ViewSource)
	if !ok {
		return false
	}
	p.hint = hint
	return vs.ConfigureViews(on, hint)
}

func (p *probe) Recycle(ck dataset.Chunk) {
	if r, ok := p.inner.(dataset.Recycler); ok {
		r.Recycle(ck)
	}
}

func (p *probe) Drain() {
	if d, ok := p.inner.(daemon.Drainer); ok {
		d.Drain()
	}
}

func (p *probe) DecodeMode() string {
	if dm, ok := p.inner.(interface{ DecodeMode() string }); ok {
		return dm.DecodeMode()
	}
	return ""
}

func (p *probe) Err() error {
	if es, ok := p.inner.(interface{ Err() error }); ok {
		return es.Err()
	}
	return nil
}

// servedAt returns when the chunk carrying packet index idx left the
// source.
func (p *probe) servedAt(idx int) (time.Time, bool) {
	i := sort.Search(len(p.marks), func(i int) bool { return p.marks[i].base+p.marks[i].n > idx })
	if i == len(p.marks) || p.marks[i].base > idx {
		return time.Time{}, false
	}
	return p.marks[i].at, true
}

// sink is the alert writer of a measured pass. Write does O(1) work — a
// timestamp and an append — so the sink does not slow the pipeline it
// measures; lines are parsed after the pass. It is written only by the
// pipeline goroutine and read after the pipeline stops.
type sink struct {
	buf   []byte
	ends  []int
	times []time.Time
	// inWrite is the cumulative time spent inside Write.
	inWrite time.Duration
}

func newSink(lines int) *sink { return &sink{buf: make([]byte, 0, lines*200)} }

func (s *sink) Write(b []byte) (int, error) {
	now := time.Now()
	s.buf = append(s.buf, b...)
	s.ends = append(s.ends, len(s.buf))
	s.times = append(s.times, now)
	s.inWrite += time.Since(now)
	return len(b), nil
}

// capBytes is the heap the sink's buffers hold.
func (s *sink) capBytes() uint64 {
	return uint64(cap(s.buf) + 8*cap(s.ends) + 24*cap(s.times))
}

// reset empties the sink for another pass, keeping its buffers.
func (s *sink) reset() {
	s.buf, s.ends, s.times, s.inWrite = s.buf[:0], s.ends[:0], s.times[:0], 0
}

// last returns when the final byte was written (zero when none was).
func (s *sink) last() time.Time {
	if len(s.times) == 0 {
		return time.Time{}
	}
	return s.times[len(s.times)-1]
}

// each calls fn for every alert line with its unit index, verdict, and
// the time of the Write that carried its final byte.
func (s *sink) each(fn func(index, pred int, at time.Time)) error {
	w := 0
	for off := 0; off < len(s.buf); {
		nl := bytes.IndexByte(s.buf[off:], '\n')
		if nl < 0 {
			return fmt.Errorf("alert sink: unterminated line at byte %d", off)
		}
		line := s.buf[off : off+nl]
		end := off + nl + 1
		for w < len(s.ends) && s.ends[w] < end {
			w++
		}
		idx, err := intField(line, `"index":`)
		if err != nil {
			return err
		}
		pred, err := intField(line, `"pred":`)
		if err != nil {
			return err
		}
		fn(idx, pred, s.times[w])
		off = end
	}
	return nil
}

// intField extracts the integer value of key from one alert line. The
// Alert schema has no nested objects and no string field that can hold
// a key-like text before index/pred, so the first match is the field.
func intField(line []byte, key string) (int, error) {
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return 0, fmt.Errorf("alert line without %s: %s", key, line)
	}
	rest := line[i+len(key):]
	j := 0
	for j < len(rest) && (rest[j] == '-' || rest[j] >= '0' && rest[j] <= '9') {
		j++
	}
	return strconv.Atoi(string(rest[:j]))
}
