package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"lumen/internal/core"
	"lumen/internal/dataset"
	"lumen/internal/flow"
	"lumen/internal/netpkt"
	"lumen/internal/pcap"
)

// mixParts are the registry corpora of the daemon workloads' traffic:
// every Ethernet packet-level dataset (P2 is 802.11 and cannot be
// concatenated with them).
var mixParts = []string{"P0", "P1", "P3", "P4"}

const (
	// mixScale sizes the scored traffic: about 17.7k packets, so one
	// daemon pass takes 0.1-0.2 s and a run makes a few hundred (see
	// fastQ for why short passes).
	mixScale = 2.0
	// mixBlocks is how many blocks the scored traffic is made of, each
	// all the parts at mixScale/mixBlocks in an order of its own. How
	// much work a pass is, and how its alert latencies fall, depends on
	// the order of the parts (about 10% and 20% from one order to
	// another); four orders per pass average most of that out, so a seed
	// changes the traffic but hardly the pass.
	mixBlocks = 4
	// trainScale sizes the training traffic, the parts at 1x in the
	// order engineSeed draws.
	trainScale = 1.0
	// engineSeed is Engine.Seed, lumend's default (-seed 7). Training
	// traffic and engine seed do not depend on the workload seed, so
	// every seed scores with the same model.
	engineSeed = 7
)

// buildMix concatenates blocks blocks of the mix parts, each at
// scale/blocks in an order drawn from seed, on one continuous timeline.
func buildMix(seed int64, scale float64, blocks int) (*dataset.Labeled, error) {
	rng := rand.New(rand.NewSource(seed))
	var parts []*dataset.Labeled
	for b := 0; b < blocks; b++ {
		for _, i := range rng.Perm(len(mixParts)) {
			spec, ok := dataset.Get(mixParts[i])
			if !ok {
				return nil, fmt.Errorf("no registry dataset %s", mixParts[i])
			}
			parts = append(parts, spec.Generate(scale/float64(blocks)))
		}
	}
	return dataset.Concat(parts...)
}

// writePcap writes pkts to path as a classic pcap capture.
func writePcap(path string, link netpkt.LinkType, pkts []*netpkt.Packet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w, err := pcap.NewWriter(f, link)
	if err != nil {
		f.Close()
		return err
	}
	for _, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeRotated splits pkts into n capture files named so that lexical
// order is capture order, the way a rotating capture process names them.
func writeRotated(dir string, link netpkt.LinkType, pkts []*netpkt.Packet, n int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		lo, hi := i*len(pkts)/n, (i+1)*len(pkts)/n
		if err := writePcap(filepath.Join(dir, fmt.Sprintf("trace-%06d.pcap", i)), link, pkts[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// readBack reads a capture the way the reference sees it: eagerly, with
// pcap's microsecond timestamps, and without labels.
func readBack(paths ...string) (*dataset.Labeled, error) {
	out := &dataset.Labeled{Name: "readback", Granularity: dataset.Packet}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		r, err := pcap.NewReader(f)
		if err != nil {
			f.Close()
			return nil, err
		}
		pkts, err := r.ReadAll()
		f.Close()
		if err != nil {
			return nil, err
		}
		out.Link = r.LinkType()
		out.Packets = append(out.Packets, pkts...)
	}
	out.Labels = make([]int, len(out.Packets))
	out.Attacks = make([]string, len(out.Packets))
	return out, nil
}

// reference is what a daemon pass must reproduce: the verdict of every
// packet from a batch Engine.Test, and the conn-log bytes flow assembly
// writes for the same packets.
type reference struct {
	pred    []int // per packet index; -1 when the batch run scored none
	connLog []byte
}

// newReference trains an engine exactly like the daemon's (same
// pipeline, seed and training data), scores ds in one batch Test, and
// renders the conn-log of ds.
func newReference(pl *core.Pipeline, seed int64, train, ds *dataset.Labeled) (*reference, error) {
	eng := core.NewEngine(pl)
	eng.Seed = seed
	if err := eng.Train(train); err != nil {
		return nil, fmt.Errorf("reference train: %w", err)
	}
	res, err := eng.Test(ds)
	if err != nil {
		return nil, fmt.Errorf("reference test: %w", err)
	}
	ref := &reference{pred: make([]int, len(ds.Packets))}
	for i := range ref.pred {
		ref.pred[i] = -1
	}
	for i, idx := range res.UnitIdx {
		if idx >= 0 && idx < len(ref.pred) {
			ref.pred[idx] = res.Pred[i]
		}
	}
	var b bytes.Buffer
	if err := flow.WriteConnLog(&b, flow.Connections(ds.Packets, flow.Options{})); err != nil {
		return nil, err
	}
	ref.connLog = b.Bytes()
	return ref, nil
}
