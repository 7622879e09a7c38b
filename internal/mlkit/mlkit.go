// Package mlkit is a self-contained machine-learning library implemented on
// the Go standard library only. It provides the model families required by
// the 16 anomaly-detection algorithms Lumen ports: decision trees, random
// forests, naive Bayes, k-nearest neighbours, linear and one-class SVMs,
// Gaussian mixtures, k-means, Nyström kernel approximation, feed-forward
// autoencoders, Kitsune's KitNET ensemble, and a small AutoML search.
//
// Two interfaces split the supervised and unsupervised worlds:
//
//	Classifier: Fit(X, y) then Predict(X) -> class labels
//	Detector:   Fit(X)    then Score(X)   -> anomaly scores (higher = worse)
//
// All models accept row-major [][]float64 feature matrices. Randomized
// models take an explicit seed so results are reproducible.
package mlkit

import (
	"errors"
	"fmt"
)

// Classifier is a supervised classifier over dense feature vectors.
// Labels are small non-negative ints; binary tasks use 0 (benign) and
// 1 (malicious).
type Classifier interface {
	// Fit trains the classifier. X is row-major, len(y) == len(X).
	Fit(X [][]float64, y []int) error
	// Predict returns one label per row of X.
	Predict(X [][]float64) []int
}

// ProbClassifier is a Classifier that can also report class-1 scores,
// enabling threshold sweeps (AUC) on supervised models.
type ProbClassifier interface {
	Classifier
	// Proba returns, for each row, the score of the positive class in [0,1].
	Proba(X [][]float64) []float64
}

// PredictProber is a ProbClassifier whose verdicts and class-1 scores
// come out of one scoring pass. Models with their own scoring loop
// derive Predict and Proba from PredictProba; wrappers forward it to
// the model they wrap. Either way a caller that needs both (the train
// op in test mode, the swap handle under a shadow) scores X once.
type PredictProber interface {
	ProbClassifier
	// PredictProba returns one label per row of X and the class-1 score
	// per row, exactly what Predict and Proba would return.
	PredictProba(X [][]float64) ([]int, []float64)
}

// PredictProba returns c's verdicts and class-1 scores for X, in one
// scoring pass when c implements PredictProber and through Predict then
// Proba otherwise. Scores are nil when c is not a ProbClassifier.
func PredictProba(c Classifier, X [][]float64) ([]int, []float64) {
	switch m := c.(type) {
	case PredictProber:
		return m.PredictProba(X)
	case ProbClassifier:
		return m.Predict(X), m.Proba(X)
	}
	return c.Predict(X), nil
}

// probaOrLabels is Proba for wrappers that always report scores: when c
// has none, its hard labels stand in as 0/1 scores.
func probaOrLabels(c Classifier, X [][]float64) []float64 {
	if pc, ok := c.(ProbClassifier); ok {
		return pc.Proba(X)
	}
	return labelScores(c.Predict(X))
}

// predictProbaOrLabels is the PredictProba counterpart of probaOrLabels.
func predictProbaOrLabels(c Classifier, X [][]float64) ([]int, []float64) {
	pred, proba := PredictProba(c, X)
	if _, ok := c.(ProbClassifier); !ok {
		proba = labelScores(pred)
	}
	return pred, proba
}

// thresholdScores labels 1 every score strictly above thr.
func thresholdScores(scores []float64, thr float64) []int {
	out := make([]int, len(scores))
	for i, s := range scores {
		if s > thr {
			out[i] = 1
		}
	}
	return out
}

// labelScores renders hard labels as 0/1 scores.
func labelScores(pred []int) []float64 {
	out := make([]float64, len(pred))
	for i, v := range pred {
		out[i] = float64(v)
	}
	return out
}

// Detector is an unsupervised anomaly detector. Fit learns a model of
// "normal" data; Score returns a value per row where higher means more
// anomalous.
type Detector interface {
	Fit(X [][]float64) error
	Score(X [][]float64) []float64
}

// Thresholded wraps a Detector and a score threshold into a Classifier:
// scores strictly above the threshold predict class 1.
type Thresholded struct {
	Detector  Detector
	Threshold float64
	// Quantile, when in (0,1], recomputes Threshold at Fit time as that
	// quantile of the training scores (e.g. 0.98 tolerates 2% training
	// outliers). When 0 the fixed Threshold is used as-is.
	Quantile float64

	// q2 streams the training-score quantile for PartialFit, replacing
	// Fit's exact sort without retaining scores.
	q2 *P2Quantile
}

// Fit fits the wrapped detector on the benign subset of X (rows with y==0),
// falling back to all rows if none are labelled benign, then calibrates the
// threshold from training scores when Quantile is set.
func (t *Thresholded) Fit(X [][]float64, y []int) error {
	benign := make([][]float64, 0, len(X))
	for i, row := range X {
		if y[i] == 0 {
			benign = append(benign, row)
		}
	}
	if len(benign) == 0 {
		benign = X
	}
	if err := t.Detector.Fit(benign); err != nil {
		return err
	}
	if t.Quantile > 0 {
		scores := t.Detector.Score(benign)
		t.Threshold = Quantile(scores, t.Quantile)
		t.q2 = nil // a fresh batch fit restarts any streaming calibration
	}
	return nil
}

// Predict classifies rows whose anomaly score exceeds the threshold as 1.
func (t *Thresholded) Predict(X [][]float64) []int {
	pred, _ := t.PredictProba(X)
	return pred
}

// Proba maps scores monotonically into [0,1] via score/(score+threshold),
// which preserves AUC ordering.
func (t *Thresholded) Proba(X [][]float64) []float64 {
	_, proba := t.PredictProba(X)
	return proba
}

// PredictProba scores X once and derives both the verdicts (score
// strictly above the threshold) and the [0,1] scores from it.
func (t *Thresholded) PredictProba(X [][]float64) ([]int, []float64) {
	scores := t.Detector.Score(X)
	pred := thresholdScores(scores, t.Threshold)
	proba := make([]float64, len(scores))
	for i, s := range scores {
		if s < 0 {
			s = 0
		}
		if d := s + t.Threshold; d > 0 {
			proba[i] = s / d
		}
	}
	return pred, proba
}

// ErrNoData is returned by Fit when the training matrix is empty.
var ErrNoData = errors.New("mlkit: empty training set")

// ErrDimMismatch is returned when feature dimensions are inconsistent.
var ErrDimMismatch = errors.New("mlkit: feature dimension mismatch")

func checkXY(X [][]float64, y []int) (d int, err error) {
	if len(X) == 0 {
		return 0, ErrNoData
	}
	if y != nil && len(y) != len(X) {
		return 0, fmt.Errorf("%w: %d rows, %d labels", ErrDimMismatch, len(X), len(y))
	}
	d = len(X[0])
	for i, row := range X {
		if len(row) != d {
			return 0, fmt.Errorf("%w: row %d has %d features, want %d", ErrDimMismatch, i, len(row), d)
		}
	}
	return d, nil
}
