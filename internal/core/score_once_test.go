package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"lumen/internal/dataset"
	"lumen/internal/mlkit"
)

// xRecorder stands in for a trained model to capture the feature matrix
// the train op scores in test mode. It reports no scores, so the train
// op calls Predict exactly once per chunk.
type xRecorder struct {
	inner mlkit.Classifier
	X     [][]float64
}

func (r *xRecorder) Fit(X [][]float64, y []int) error { return r.inner.Fit(X, y) }

func (r *xRecorder) Predict(X [][]float64) []int {
	r.X = append(r.X, X...)
	return r.inner.Predict(X)
}

// modelPipeline is fieldPipeline with the model op swapped for mt.
func modelPipeline(mt string) *Pipeline {
	p := fieldPipeline()
	p.Name = "fused-" + mt
	p.Ops[3].Params = map[string]any{"model_type": mt}
	return p
}

// TestPredictProbaMatchesSplitAllModelTypes fits every model type on a
// registry dataset and checks that the fused scoring pass returns
// exactly what Predict and Proba return when called separately: the
// same labels, the same float bits, and nil scores exactly when the
// model is no ProbClassifier. The engine's test-mode result must be the
// fused output too.
func TestPredictProbaMatchesSplitAllModelTypes(t *testing.T) {
	spec, _ := dataset.Get("P1")
	ds := spec.Generate(0.2)
	for _, mt := range ModelTypes() {
		t.Run(mt, func(t *testing.T) {
			eng := NewEngine(modelPipeline(mt))
			eng.Seed = 7
			if err := eng.Train(ds); err != nil {
				t.Fatal(err)
			}
			want, err := eng.Test(ds)
			if err != nil {
				t.Fatal(err)
			}
			clf, _ := eng.TrainedModel()
			rec := &xRecorder{inner: clf}
			if err := eng.ReplaceModel(rec); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Test(ds); err != nil {
				t.Fatal(err)
			}
			X := rec.X
			if len(X) == 0 {
				t.Fatal("no rows scored")
			}
			pred, scores := mlkit.PredictProba(clf, X)
			splitPred := clf.Predict(X)
			var splitScores []float64
			if pc, ok := clf.(mlkit.ProbClassifier); ok {
				splitScores = pc.Proba(X)
			}
			requireSameVerdicts(t, mt, pred, scores, splitPred, splitScores)
			requireSameVerdicts(t, mt+" engine", want.Pred, want.Scores, splitPred, splitScores)
		})
	}
}

func requireSameVerdicts(t *testing.T, label string, pred []int, scores []float64, wantPred []int, wantScores []float64) {
	t.Helper()
	if len(pred) != len(wantPred) {
		t.Fatalf("%s: %d labels, want %d", label, len(pred), len(wantPred))
	}
	for i := range pred {
		if pred[i] != wantPred[i] {
			t.Fatalf("%s: label %d = %d, want %d", label, i, pred[i], wantPred[i])
		}
	}
	if (scores == nil) != (wantScores == nil) || len(scores) != len(wantScores) {
		t.Fatalf("%s: scores nil=%v len=%d, want nil=%v len=%d", label, scores == nil, len(scores), wantScores == nil, len(wantScores))
	}
	for i := range scores {
		if math.Float64bits(scores[i]) != math.Float64bits(wantScores[i]) {
			t.Fatalf("%s: score %d = %v, want %v", label, i, scores[i], wantScores[i])
		}
	}
}

// countingDetector counts Score calls and scored rows. Lanes of a
// sharded sink share it through their scoring replicas, hence atomics.
type countingDetector struct {
	calls, rows atomic.Int64
}

func (d *countingDetector) Fit([][]float64) error { return nil }

func (d *countingDetector) Score(X [][]float64) []float64 {
	d.calls.Add(1)
	d.rows.Add(int64(len(X)))
	out := make([]float64, len(X))
	for i, row := range X {
		out[i] = row[1] // the log-scaled packet length
	}
	return out
}

// TestScoreOncePerChunk pins that test mode scores every chunk exactly
// once: the train op must not ask the model for verdicts and scores in
// two separate passes. Sequential and staged runs score each chunk in
// one call; a sharded sink splits a chunk across lanes, so there every
// row is scored exactly once.
func TestScoreOncePerChunk(t *testing.T) {
	spec, _ := dataset.Get("P1")
	ds := spec.Generate(0.2)
	eng := NewEngine(fieldPipeline())
	eng.Seed = 7
	if err := eng.Train(ds); err != nil {
		t.Fatal(err)
	}
	shapes := []StreamConfig{
		{ChunkRows: 64},
		{ChunkRows: 64, PipelineDepth: 2},
		{ChunkRows: 64, Shards: 4},
	}
	for si, shape := range shapes {
		t.Run(fmt.Sprintf("shape%d", si), func(t *testing.T) {
			det := &countingDetector{}
			if err := eng.ReplaceModel(&mlkit.Thresholded{Detector: det, Threshold: 5}); err != nil {
				t.Fatal(err)
			}
			res, err := eng.TestStream(ds, shape)
			if err != nil {
				t.Fatal(err)
			}
			st := eng.LastStream
			calls, rows := det.calls.Load(), det.rows.Load()
			if rows != int64(len(res.Pred)) {
				t.Errorf("scored %d rows for %d verdicts", rows, len(res.Pred))
			}
			if st.Shards > 1 {
				if calls < int64(st.Chunks) || calls > int64(st.Chunks*st.Shards) {
					t.Errorf("%d Score calls for %d chunks over %d lanes", calls, st.Chunks, st.Shards)
				}
			} else if calls != int64(st.Chunks) {
				t.Errorf("%d Score calls for %d chunks", calls, st.Chunks)
			}
			if shape.Shards > 1 && st.Shards != shape.Shards {
				t.Errorf("sink ran %d lanes, want %d", st.Shards, shape.Shards)
			}
		})
	}
}
