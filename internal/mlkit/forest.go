package mlkit

import (
	"math"
	"runtime"
	"sync"
)

// RandomForest is a bagged ensemble of CART trees with per-split feature
// subsampling (sqrt(d) by default), trained in parallel.
type RandomForest struct {
	// NTrees is the ensemble size; 0 means 50.
	NTrees int
	// MaxDepth per tree; 0 means 24.
	MaxDepth int
	// MinSamplesLeaf per tree; 0 means 1.
	MinSamplesLeaf int
	// MaxFeatures per split; 0 means round(sqrt(d)).
	MaxFeatures int
	// Seed drives bootstrap sampling and per-tree seeds.
	Seed int64

	trees   []*DecisionTree
	classes int
}

func (f *RandomForest) nTrees() int {
	if f.NTrees == 0 {
		return 50
	}
	return f.NTrees
}

// Fit trains the forest; trees are grown concurrently across CPUs.
func (f *RandomForest) Fit(X [][]float64, y []int) error {
	d, err := checkXY(X, y)
	if err != nil {
		return err
	}
	f.classes = 0
	for _, label := range y {
		if label+1 > f.classes {
			f.classes = label + 1
		}
	}
	if f.classes < 2 {
		f.classes = 2
	}
	maxFeat := f.MaxFeatures
	if maxFeat == 0 {
		maxFeat = int(math.Round(math.Sqrt(float64(d))))
		if maxFeat < 1 {
			maxFeat = 1
		}
	}
	n := len(X)
	f.trees = make([]*DecisionTree, f.nTrees())

	workers := runtime.GOMAXPROCS(0)
	if workers > len(f.trees) {
		workers = len(f.trees)
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	errCh := make(chan error, len(f.trees))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ti := range jobs {
				rng := NewRNG(f.Seed + int64(ti)*7919)
				bx := make([][]float64, n)
				by := make([]int, n)
				for i := 0; i < n; i++ {
					j := rng.Intn(n)
					bx[i] = X[j]
					by[i] = y[j]
				}
				tree := &DecisionTree{
					MaxDepth:       f.MaxDepth,
					MinSamplesLeaf: f.MinSamplesLeaf,
					MaxFeatures:    maxFeat,
					Seed:           f.Seed + int64(ti)*104729,
					minClasses:     f.classes,
				}
				if err := tree.Fit(bx, by); err != nil {
					errCh <- err
					return
				}
				f.trees[ti] = tree
			}
		}()
	}
	for ti := range f.trees {
		jobs <- ti
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
	}
	return nil
}

// Predict returns the class with the highest mean leaf probability.
func (f *RandomForest) Predict(X [][]float64) []int {
	pred, _ := f.PredictProba(X)
	return pred
}

// Proba returns the positive-class mean probability per row.
func (f *RandomForest) Proba(X [][]float64) []float64 {
	_, proba := f.PredictProba(X)
	return proba
}

// PredictProba averages the trees' leaf distributions per row and
// reports the argmax class and the positive-class mean. The walk is row
// major: one class accumulator per call, summed over the trees in order
// and then scaled by 1/NTrees, so the cost in allocations does not grow
// with the ensemble. Every tree's leaves are as wide as the accumulator:
// Fit sets minClasses and UnmarshalModel checks it. The accumulator is
// local because scoring replicas share the forest across goroutines.
func (f *RandomForest) PredictProba(X [][]float64) ([]int, []float64) {
	pred := make([]int, len(X))
	proba := make([]float64, len(X))
	acc := make([]float64, f.classes)
	inv := 1 / float64(len(f.trees))
	for i, row := range X {
		clear(acc)
		for _, tree := range f.trees {
			for j, v := range tree.leafProba(row) {
				acc[j] += v
			}
		}
		if len(f.trees) > 0 {
			for j := range acc {
				acc[j] *= inv
			}
		}
		pred[i] = ArgMax(acc)
		if len(acc) > 1 {
			proba[i] = acc[1]
		}
	}
	return pred, proba
}
