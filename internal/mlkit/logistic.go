package mlkit

import (
	"math"

	"lumen/internal/mlkit/linalg"
)

// LogisticRegression is a binary logistic classifier trained by SGD with
// L2 regularization. It broadens the AutoML search space and the grid
// search examples; inputs should be scaled.
type LogisticRegression struct {
	// LR is the learning rate; 0 means 0.1.
	LR float64
	// Lambda is the L2 penalty; 0 means 1e-4.
	Lambda float64
	// Epochs over the data; 0 means 20.
	Epochs int
	// Seed drives sampling order.
	Seed int64

	w   []float64
	b   float64
	obs FitObserver
}

// SetFitObserver attaches a per-epoch progress observer; the reported
// loss is the epoch's mean log-loss over the sampled points.
func (l *LogisticRegression) SetFitObserver(o FitObserver) { l.obs = o }

// Fit trains on labels in {0,1}.
func (l *LogisticRegression) Fit(X [][]float64, y []int) error {
	d, err := checkXY(X, y)
	if err != nil {
		return err
	}
	lr := l.LR
	if lr == 0 {
		lr = 0.1
	}
	lambda := l.Lambda
	if lambda == 0 {
		lambda = 1e-4
	}
	epochs := l.Epochs
	if epochs == 0 {
		epochs = 20
	}
	l.w = make([]float64, d)
	l.b = 0
	rng := NewRNG(l.Seed)
	n := len(X)
	for e := 0; e < epochs; e++ {
		step := lr / (1 + 0.1*float64(e)) // simple decay
		var logLoss float64
		for k := 0; k < n; k++ {
			i := rng.Intn(n)
			p := sigmoid(Dot(l.w, X[i]) + l.b)
			t := 0.0
			if y[i] != 0 {
				t = 1
			}
			g := p - t
			if l.obs != nil {
				logLoss += crossEntropy(p, t)
			}
			for j, v := range X[i] {
				l.w[j] -= step * (g*v + lambda*l.w[j])
			}
			l.b -= step * g
		}
		if l.obs != nil {
			l.obs.FitEpoch("logistic", e, logLoss/float64(n))
		}
	}
	return nil
}

// crossEntropy is the log-loss of predicting probability p for target t,
// clamped away from 0/1 so a saturated sigmoid stays finite.
func crossEntropy(p, t float64) float64 {
	const eps = 1e-12
	if p < eps {
		p = eps
	} else if p > 1-eps {
		p = 1 - eps
	}
	if t != 0 {
		return -math.Log(p)
	}
	return -math.Log(1 - p)
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// Predict thresholds the probability at 0.5.
func (l *LogisticRegression) Predict(X [][]float64) []int {
	pred, _ := l.PredictProba(X)
	return pred
}

// PredictProba computes P(y=1|x) once per row and thresholds it at 0.5.
func (l *LogisticRegression) PredictProba(X [][]float64) ([]int, []float64) {
	p := l.Proba(X)
	return thresholdScores(p, 0.5), p
}

// Proba returns P(y=1|x) per row. Rows split across the worker pool;
// each element is written by exactly one goroutine, so results are
// bit-identical for any worker count.
func (l *LogisticRegression) Proba(X [][]float64) []float64 {
	out := make([]float64, len(X))
	linalg.ParallelRows(len(X), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = sigmoid(linalg.Dot(l.w, X[i]) + l.b)
		}
	})
	return out
}
