package mlkit

import (
	"math"
	"testing"
)

// Every model with its own scoring loop, and every wrapper that forwards
// one, serves verdicts and scores from a single pass.
var (
	_ PredictProber = (*DecisionTree)(nil)
	_ PredictProber = (*RandomForest)(nil)
	_ PredictProber = (*GaussianNB)(nil)
	_ PredictProber = (*KNN)(nil)
	_ PredictProber = (*LinearSVM)(nil)
	_ PredictProber = (*LogisticRegression)(nil)
	_ PredictProber = (*MLPClassifier)(nil)
	_ PredictProber = (*Thresholded)(nil)
	_ PredictProber = (*Pipeline)(nil)
	_ PredictProber = (*VotingEnsemble)(nil)
	_ PredictProber = (*AutoML)(nil)
	_ PredictProber = (*GridSearch)(nil)
	_ PredictProber = (*ReservoirRetrainer)(nil)
	_ PredictProber = (*SwapHandle)(nil)
)

func requireSameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("%s: nil=%v len=%d, want nil=%v len=%d", label, got == nil, len(got), want == nil, len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: row %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

func requireSameInts(t *testing.T, label string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %d, want %d", label, i, got[i], want[i])
		}
	}
}

// treeByTreeAverage is the forest's former column-major scoring: each
// tree scores every row into a per-row distribution, the distributions
// are summed tree by tree and scaled by 1/NTrees.
func treeByTreeAverage(f *RandomForest, X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i := range out {
		out[i] = make([]float64, f.classes)
	}
	for _, tree := range f.trees {
		for i, row := range X {
			for j, v := range tree.leafProba(row) {
				if j < f.classes {
					out[i][j] += v
				}
			}
		}
	}
	inv := 1 / float64(len(f.trees))
	for i := range out {
		for j := range out[i] {
			out[i][j] *= inv
		}
	}
	return out
}

// TestForestFusedMatchesTreeByTree checks the row-major forest walk
// against the tree-by-tree average it replaced, bit for bit, on binary
// and on three-class data with a class most bootstraps miss.
func TestForestFusedMatchesTreeByTree(t *testing.T) {
	X, y := blobs(400, 5, 1.5, 411)
	X3 := append(append([][]float64(nil), X...), []float64{9, 9, 9, 9, 9})
	y3 := append(append([]int(nil), y...), 2)
	for _, tc := range []struct {
		name string
		X    [][]float64
		y    []int
	}{{"binary", X, y}, {"three-class", X3, y3}} {
		f := &RandomForest{NTrees: 25, Seed: 5}
		if err := f.Fit(tc.X, tc.y); err != nil {
			t.Fatal(err)
		}
		ref := treeByTreeAverage(f, tc.X)
		wantPred := make([]int, len(ref))
		wantProba := make([]float64, len(ref))
		for i, p := range ref {
			wantPred[i] = ArgMax(p)
			wantProba[i] = p[1]
		}
		pred, proba := f.PredictProba(tc.X)
		requireSameInts(t, tc.name+" pred", pred, wantPred)
		requireSameBits(t, tc.name+" proba", proba, wantProba)
		requireSameInts(t, tc.name+" Predict", f.Predict(tc.X), wantPred)
		requireSameBits(t, tc.name+" Proba", f.Proba(tc.X), wantProba)
	}
}

// TestSwapHandleFusedMatchesSplit checks the handle's single pass
// against Predict then Proba on a twin handle: the same verdicts and
// scores, and the same divergence tally, with no shadow attached and
// with probabilistic and scoreless shadows (and a scoreless active
// model). The tally is also checked against the two models' own
// outputs.
func TestSwapHandleFusedMatchesSplit(t *testing.T) {
	X, y := blobs(300, 4, 1.2, 413)
	rf := &RandomForest{NTrees: 10, Seed: 1}
	dt := &DecisionTree{MaxDepth: 3, Seed: 2}
	for _, m := range []Classifier{rf, dt} {
		if err := m.Fit(X, y); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name           string
		active, shadow Classifier
	}{
		{"no shadow", rf, nil},
		{"prob shadow", rf, dt},
		{"scoreless shadow", rf, scorelessClf{class: 1}},
		{"scoreless active", scorelessClf{class: 0}, dt},
	}
	for _, tc := range cases {
		split, fused := NewSwapHandle(tc.active), NewSwapHandle(tc.active)
		if tc.shadow != nil {
			if err := split.StartShadow(tc.shadow); err != nil {
				t.Fatal(err)
			}
			if err := fused.StartShadow(tc.shadow); err != nil {
				t.Fatal(err)
			}
		}
		for _, chunk := range [][][]float64{X[:100], X[100:100], X[100:]} {
			wantPred := split.Predict(chunk)
			wantScores := split.Proba(chunk)
			pred, scores := fused.PredictProba(chunk)
			requireSameInts(t, tc.name+" pred", pred, wantPred)
			requireSameBits(t, tc.name+" scores", scores, wantScores)
		}
		if got, want := fused.Stats(), split.Stats(); got != want {
			t.Fatalf("%s: fused stats %+v, split stats %+v", tc.name, got, want)
		}
		if tc.shadow == nil {
			if got := fused.Stats(); got != (SwapStats{}) {
				t.Fatalf("%s: stats %+v without a shadow", tc.name, got)
			}
			continue
		}
		want := SwapStats{Chunks: 3, Rows: len(X)}
		for _, chunk := range [][][]float64{X[:100], X[100:]} {
			ap, as := PredictProba(tc.active, chunk)
			sp, ss := PredictProba(tc.shadow, chunk)
			for i := range ap {
				if ap[i] != sp[i] {
					want.Disagree++
				}
			}
			if as != nil && ss != nil {
				for i := range as {
					want.ScoreRows++
					want.AbsScoreSum += math.Abs(as[i] - ss[i])
				}
			}
		}
		if got := fused.Stats(); got != want {
			t.Fatalf("%s: stats %+v, want %+v", tc.name, got, want)
		}
	}
}

// TestForestPredictProbaAllocsFlat pins the allocation-free forest walk:
// a call's allocations do not grow with the number of trees.
func TestForestPredictProbaAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	X, y := blobs(256, 6, 1.0, 415)
	allocs := map[int]float64{}
	for _, n := range []int{10, 50} {
		f := &RandomForest{NTrees: n, Seed: 1}
		if err := f.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		allocs[n] = testing.AllocsPerRun(20, func() { f.PredictProba(X) })
	}
	if allocs[10] != allocs[50] {
		t.Fatalf("PredictProba allocations grow with the ensemble: %v per call at 10 trees, %v at 50", allocs[10], allocs[50])
	}
}
