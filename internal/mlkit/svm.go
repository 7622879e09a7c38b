package mlkit

import (
	"math"

	"lumen/internal/mlkit/linalg"
)

// LinearSVM is a binary linear SVM trained with the Pegasos stochastic
// sub-gradient algorithm on the hinge loss. Inputs should be scaled.
type LinearSVM struct {
	// Lambda is the L2 regularization strength; 0 means 1e-4.
	Lambda float64
	// Epochs over the data; 0 means 10.
	Epochs int
	// Seed drives the sampling order.
	Seed int64

	w []float64
	b float64
	// scale calibrates Proba's logistic squashing.
	scale float64
	// steps is the global Pegasos step counter; persisting it across
	// PartialFit batches keeps the 1/(λt) step size decaying.
	steps int
	// absSum/absN accumulate |margin| for the streaming Proba
	// calibration.
	absSum float64
	absN   int
	obs    FitObserver
}

// SetFitObserver attaches a per-epoch progress observer; the reported
// loss is the epoch's mean hinge loss over the sampled points.
func (s *LinearSVM) SetFitObserver(o FitObserver) { s.obs = o }

// Fit trains on X with labels y in {0,1} (mapped internally to ±1).
func (s *LinearSVM) Fit(X [][]float64, y []int) error {
	d, err := checkXY(X, y)
	if err != nil {
		return err
	}
	lambda := s.Lambda
	if lambda == 0 {
		lambda = 1e-4
	}
	epochs := s.Epochs
	if epochs == 0 {
		epochs = 10
	}
	s.w = make([]float64, d)
	s.b = 0
	s.steps = 0
	rng := NewRNG(s.Seed)
	n := len(X)
	for e := 0; e < epochs; e++ {
		var hinge float64
		for k := 0; k < n; k++ {
			s.steps++
			i := rng.Intn(n)
			yi := -1.0
			if y[i] != 0 {
				yi = 1
			}
			eta := 1 / (lambda * float64(s.steps))
			margin := yi * (Dot(s.w, X[i]) + s.b)
			// w <- (1 - eta*lambda) w [+ eta*yi*x when violating]
			decay := 1 - eta*lambda
			for j := range s.w {
				s.w[j] *= decay
			}
			if margin < 1 {
				hinge += 1 - margin
				for j, v := range X[i] {
					s.w[j] += eta * yi * v
				}
				s.b += eta * yi
			}
		}
		if s.obs != nil {
			s.obs.FitEpoch("linear_svm", e, hinge/float64(n))
		}
	}
	// Calibrate a logistic scale from the margin spread; the running
	// sums carry into any subsequent PartialFit recalibration.
	var sumAbs float64
	for _, row := range X {
		sumAbs += math.Abs(Dot(s.w, row) + s.b)
	}
	s.absSum, s.absN = sumAbs, n
	s.scale = 1
	if m := sumAbs / float64(n); m > 0 {
		s.scale = 1 / m
	}
	return nil
}

// Decision returns the signed margin per row. Rows split across the
// worker pool; each element is written by exactly one goroutine, so
// results are bit-identical for any worker count.
func (s *LinearSVM) Decision(X [][]float64) []float64 {
	out := make([]float64, len(X))
	linalg.ParallelRows(len(X), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = linalg.Dot(s.w, X[i]) + s.b
		}
	})
	return out
}

// Predict returns 1 where the margin is positive.
func (s *LinearSVM) Predict(X [][]float64) []int {
	pred, _ := s.PredictProba(X)
	return pred
}

// Proba squashes margins through a calibrated logistic.
func (s *LinearSVM) Proba(X [][]float64) []float64 {
	_, proba := s.PredictProba(X)
	return proba
}

// PredictProba computes each row's margin once and reports its sign and
// its calibrated logistic score.
func (s *LinearSVM) PredictProba(X [][]float64) ([]int, []float64) {
	dec := s.Decision(X)
	pred := thresholdScores(dec, 0)
	for i, m := range dec {
		dec[i] = 1 / (1 + math.Exp(-m*s.scale))
	}
	return pred, dec
}
