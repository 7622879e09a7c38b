package mlkit

import (
	"fmt"
	"testing"
)

// Micro-benchmarks for the numeric hot paths the benchsuite spends its
// wall time in: neural-net training (MLP/autoencoder, and through them
// KitNET), KNN prediction, GMM scoring and the Nyström feature map, plus
// the test-mode scoring of the daemon's models (forest, KitNET).
// `make bench` runs these with a fixed -benchtime and records the
// results in BENCH_PR3.json so speedups are tracked across PRs.

func benchMatrix(n, d int, seed int64) [][]float64 {
	rng := NewRNG(seed)
	X := make([][]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		X[i] = row
	}
	return X
}

func benchLabels(X [][]float64) []int {
	y := make([]int, len(X))
	for i, row := range X {
		if row[0]+row[1] > 1 {
			y[i] = 1
		}
	}
	return y
}

func BenchmarkMLPFit(b *testing.B) {
	X := benchMatrix(512, 32, 1)
	y := benchLabels(X)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &MLPClassifier{Hidden: []int{32}, Epochs: 5, Seed: 1}
		if err := c.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAutoencoderFit(b *testing.B) {
	X := benchMatrix(512, 32, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := &Autoencoder{Hidden: []int{16}, Epochs: 5, Seed: 1}
		if err := a.Fit(X); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAutoencoderScore(b *testing.B) {
	X := benchMatrix(2048, 32, 3)
	a := &Autoencoder{Hidden: []int{16}, Epochs: 2, Seed: 1}
	if err := a.Fit(X[:256]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Score(X)
	}
}

// benchBlobs draws rows from a mixture of nc axis-aligned Gaussians with
// shared centers — the clustered shape of real flow-feature data (most
// traffic is repetitive), unlike uniform noise which is the worst case
// for any neighbour pruning.
func benchBlobs(n, d, nc int, rng *RNG, centers []float64) [][]float64 {
	X := make([][]float64, n)
	for i := range X {
		c := rng.Intn(nc)
		row := make([]float64, d)
		for j := range row {
			row[j] = centers[c*d+j] + rng.NormFloat64()*0.05
		}
		X[i] = row
	}
	return X
}

func BenchmarkKNNPredict(b *testing.B) {
	for _, d := range []int{8, 32} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			const nc = 16
			rng := NewRNG(4)
			centers := make([]float64, nc*d)
			for i := range centers {
				centers[i] = rng.Float64()
			}
			X := benchBlobs(4096, d, nc, rng, centers)
			y := benchLabels(X)
			k := &KNN{K: 5, MaxTrain: -1}
			if err := k.Fit(X, y); err != nil {
				b.Fatal(err)
			}
			Q := benchBlobs(512, d, nc, rng, centers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = k.Predict(Q)
			}
		})
	}
}

func BenchmarkKitNETFit(b *testing.B) {
	X := benchMatrix(512, 24, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := &KitNET{Epochs: 2, Seed: 1}
		if err := k.Fit(X); err != nil {
			b.Fatal(err)
		}
	}
}

// benchForest fits the replay workload's model shape: a 50-tree forest
// over 27 per-packet fields.
func benchForest(b *testing.B) (*RandomForest, [][]float64) {
	X := benchMatrix(2048, 27, 11)
	f := &RandomForest{NTrees: 50, Seed: 1}
	if err := f.Fit(X, benchLabels(X)); err != nil {
		b.Fatal(err)
	}
	return f, benchMatrix(512, 27, 12)
}

// BenchmarkForestScoreSplit is the former test-mode call pattern: Predict
// then Proba, two walks of every tree.
func BenchmarkForestScoreSplit(b *testing.B) {
	f, Q := benchForest(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Predict(Q)
		_ = f.Proba(Q)
	}
}

// BenchmarkForestScoreFused is the single PredictProba pass that test
// mode makes now.
func BenchmarkForestScoreFused(b *testing.B) {
	f, Q := benchForest(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = f.PredictProba(Q)
	}
}

func BenchmarkKitNETScore(b *testing.B) {
	X := benchMatrix(512, 64, 13)
	k := &KitNET{Epochs: 1, Seed: 1}
	if err := k.Fit(X); err != nil {
		b.Fatal(err)
	}
	Q := benchMatrix(512, 64, 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = k.Score(Q)
	}
}

func BenchmarkGMMScore(b *testing.B) {
	X := benchMatrix(4096, 16, 7)
	g := &GMM{K: 4, Seed: 1, MaxIter: 10}
	if err := g.Fit(X[:512]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Score(X)
	}
}

func BenchmarkGMMFit(b *testing.B) {
	X := benchMatrix(1024, 16, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := &GMM{K: 4, Seed: 1, MaxIter: 10}
		if err := g.Fit(X); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNystromTransform(b *testing.B) {
	X := benchMatrix(2048, 16, 9)
	ny := &NystromMap{M: 48, Seed: 1}
	if err := ny.Fit(X[:512]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ny.Transform(X)
	}
}

func BenchmarkKMeansFit(b *testing.B) {
	X := benchMatrix(2048, 16, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		km := &KMeans{K: 8, Seed: 1, MaxIter: 15}
		if err := km.Fit(X); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLinearPredict(b *testing.B) {
	X := benchMatrix(8192, 32, 11)
	y := benchLabels(X)
	s := &LinearSVM{Seed: 1, Epochs: 3}
	if err := s.Fit(X[:512], y[:512]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Proba(X)
	}
}
