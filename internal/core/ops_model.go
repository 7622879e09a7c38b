package core

import (
	"fmt"

	"lumen/internal/mlkit"
)

func init() {
	register("model",
		"construct an (unfitted) model spec: random_forest, decision_tree, gaussian_nb, knn, linear_svm, mlp, voting ensembles, automl, kitnet, autoencoder, ocsvm, nystrom_ocsvm, nystrom_gmm, gmm",
		opSig{in: nil, out: KindModel}, opModel)
	register("train",
		"fit the model on the frame's features and labels (training runs); predict with the fitted model (test runs)",
		opSig{in: []Kind{KindModel, KindFrame}, out: KindTrained}, opTrain)
}

func opModel(_ *opCtx, _ []Value, p params) (Value, error) {
	mt := p.str("model_type", p.str("type", ""))
	if mt == "" {
		return nil, fmt.Errorf("model: missing model_type")
	}
	if _, err := buildClassifier(ModelSpec{Type: mt, Params: map[string]any(p)}, 0); err != nil {
		return nil, err // validate eagerly so Check-time errors are early
	}
	return ModelSpec{Type: mt, Params: map[string]any(p)}, nil
}

// ModelTypes lists the supported model_type values.
func ModelTypes() []string {
	return []string{
		"random_forest", "decision_tree", "gaussian_nb", "knn", "linear_svm",
		"mlp", "ensemble_rf_svm_dt_knn", "ensemble_nb_dt_rf_dnn", "automl",
		"kitnet", "autoencoder", "ocsvm", "nystrom_ocsvm", "nystrom_gmm", "gmm",
	}
}

// buildClassifier instantiates the classifier (or thresholded detector)
// described by spec. Unsupervised detectors are wrapped in
// mlkit.Thresholded, which fits on the benign subset of the training data
// and calibrates its score threshold from a training-score quantile.
//
// A "tune" parameter object — {"param": [values...]} — wraps the model in
// a grid search over those hyperparameters (the §6 automatic tuning
// extension); supported for random_forest, decision_tree and knn.
func buildClassifier(spec ModelSpec, seed int64) (mlkit.Classifier, error) {
	p := params(spec.Params)
	if p == nil {
		p = params{}
	}
	if tune, ok := p["tune"].(map[string]any); ok {
		return buildTuned(spec.Type, tune, seed)
	}
	q := p.f64("quantile", 0.98)
	switch spec.Type {
	case "random_forest":
		return &mlkit.RandomForest{
			NTrees:   p.i("n_trees", 50),
			MaxDepth: p.i("max_depth", 0),
			Seed:     seed,
		}, nil
	case "decision_tree":
		return &mlkit.DecisionTree{MaxDepth: p.i("max_depth", 0), Seed: seed}, nil
	case "gaussian_nb":
		return &mlkit.GaussianNB{}, nil
	case "knn":
		return &mlkit.KNN{K: p.i("k", 5), Seed: seed}, nil
	case "linear_svm":
		return &mlkit.LinearSVM{Epochs: p.i("epochs", 10), Seed: seed}, nil
	case "mlp":
		return &mlkit.MLPClassifier{
			Hidden: []int{p.i("hidden", 16)},
			Epochs: p.i("epochs", 20),
			Seed:   seed,
		}, nil
	case "ensemble_rf_svm_dt_knn": // ML-DDoS (A00)
		return &mlkit.VotingEnsemble{Members: []mlkit.Classifier{
			&mlkit.RandomForest{NTrees: p.i("n_trees", 30), Seed: seed},
			&mlkit.LinearSVM{Seed: seed},
			&mlkit.DecisionTree{Seed: seed},
			&mlkit.KNN{K: p.i("k", 5), Seed: seed},
		}}, nil
	case "ensemble_nb_dt_rf_dnn": // Ensemble (Moustafa et al.)
		return &mlkit.VotingEnsemble{Members: []mlkit.Classifier{
			&mlkit.GaussianNB{},
			&mlkit.DecisionTree{Seed: seed},
			&mlkit.RandomForest{NTrees: p.i("n_trees", 30), Seed: seed},
			&mlkit.MLPClassifier{Hidden: []int{16}, Epochs: p.i("epochs", 20), Seed: seed},
		}}, nil
	case "automl":
		return &mlkit.AutoML{Seed: seed}, nil
	case "kitnet":
		return &mlkit.Thresholded{
			Detector: &mlkit.KitNET{
				MaxAESize: p.i("max_ae", 10),
				Epochs:    p.i("epochs", 3),
				Seed:      seed,
			},
			Quantile: q,
		}, nil
	case "autoencoder":
		var hidden []int
		if h := p.i("hidden", 0); h > 0 {
			hidden = []int{h}
		}
		return &mlkit.Thresholded{
			Detector: &mlkit.DetectorPipeline{
				Steps: []mlkit.Transformer{&mlkit.MinMaxScaler{}},
				Detector: &mlkit.Autoencoder{
					Hidden: hidden,
					Epochs: p.i("epochs", 20),
					Seed:   seed,
				},
			},
			Quantile: q,
		}, nil
	case "ocsvm":
		return &mlkit.Thresholded{
			Detector: &mlkit.DetectorPipeline{
				Steps:    []mlkit.Transformer{&mlkit.StandardScaler{}},
				Detector: &mlkit.OneClassSVM{Nu: p.f64("nu", 0.1), Seed: seed},
			},
			Quantile: q,
		}, nil
	case "nystrom_ocsvm":
		return &mlkit.Thresholded{
			Detector: &mlkit.DetectorPipeline{
				Steps: []mlkit.Transformer{
					&mlkit.StandardScaler{},
					&mlkit.NystromMap{M: p.i("m", 48), Seed: seed},
				},
				Detector: &mlkit.OneClassSVM{Nu: p.f64("nu", 0.1), Seed: seed},
			},
			Quantile: q,
		}, nil
	case "nystrom_gmm":
		return &mlkit.Thresholded{
			Detector: &mlkit.DetectorPipeline{
				Steps: []mlkit.Transformer{
					&mlkit.StandardScaler{},
					&mlkit.NystromMap{M: p.i("m", 48), Seed: seed},
				},
				Detector: &mlkit.GMM{K: p.i("k", 4), Seed: seed},
			},
			Quantile: q,
		}, nil
	case "gmm":
		return &mlkit.Thresholded{
			Detector: &mlkit.DetectorPipeline{
				Steps:    []mlkit.Transformer{&mlkit.StandardScaler{}},
				Detector: &mlkit.GMM{K: p.i("k", 4), Seed: seed},
			},
			Quantile: q,
		}, nil
	}
	return nil, fmt.Errorf("model: unknown model_type %q (supported: %v)", spec.Type, ModelTypes())
}

// buildTuned wraps a tree-family model in a grid search over the given
// hyperparameter lists.
func buildTuned(modelType string, tune map[string]any, seed int64) (mlkit.Classifier, error) {
	grid := map[string][]float64{}
	for k, v := range tune {
		raw, ok := v.([]any)
		if !ok {
			return nil, fmt.Errorf("model: tune.%s must be a list of numbers", k)
		}
		for _, e := range raw {
			f, ok := e.(float64)
			if !ok {
				return nil, fmt.Errorf("model: tune.%s has a non-numeric entry", k)
			}
			grid[k] = append(grid[k], f)
		}
	}
	var build func(a map[string]float64) mlkit.Classifier
	switch modelType {
	case "random_forest":
		build = func(a map[string]float64) mlkit.Classifier {
			return &mlkit.RandomForest{
				NTrees:   intOr(a, "n_trees", 50),
				MaxDepth: intOr(a, "max_depth", 0),
				Seed:     seed,
			}
		}
	case "decision_tree":
		build = func(a map[string]float64) mlkit.Classifier {
			return &mlkit.DecisionTree{
				MaxDepth:       intOr(a, "max_depth", 0),
				MinSamplesLeaf: intOr(a, "min_samples_leaf", 0),
				Seed:           seed,
			}
		}
	case "knn":
		build = func(a map[string]float64) mlkit.Classifier {
			return &mlkit.KNN{K: intOr(a, "k", 5), Seed: seed}
		}
	default:
		return nil, fmt.Errorf("model: tune is not supported for model_type %q", modelType)
	}
	return &mlkit.GridSearch{New: build, Grid: grid, Seed: seed}, nil
}

func intOr(a map[string]float64, key string, def int) int {
	if v, ok := a[key]; ok {
		return int(v)
	}
	return def
}

func opTrain(ctx *opCtx, in []Value, _ params) (Value, error) {
	spec, ok := in[0].(ModelSpec)
	if !ok {
		return nil, fmt.Errorf("train: first input must be a model, got %v", in[0].Kind())
	}
	fr, err := asFrame(in[1])
	if err != nil {
		return nil, err
	}
	X := fr.Matrix()
	if ctx.mode == ModeTrain {
		if fr.Labels == nil {
			return nil, fmt.Errorf("train: frame has no labels")
		}
		if ctx.online() {
			return opTrainOnline(ctx, spec, X, fr)
		}
		clf, err := buildClassifier(spec, ctx.seed)
		if err != nil {
			return nil, err
		}
		if ctx.span != nil || ctx.metrics != nil {
			if of, ok := clf.(mlkit.ObservableFitter); ok {
				of.SetFitObserver(newEpochObserver(ctx.span, ctx.metrics))
			}
		}
		if err := clf.Fit(X, fr.Labels); err != nil {
			return nil, fmt.Errorf("train: %w", err)
		}
		tr := &Trained{Spec: spec, Clf: clf}
		ctx.setState(tr)
		return *tr, nil
	}
	st, ok := ctx.getState().(*Trained)
	if !ok {
		return nil, fmt.Errorf("train: model not fitted (test before train)")
	}
	res := &EvalResult{
		Unit:    fr.Unit,
		Truth:   append([]int(nil), fr.Labels...),
		Attacks: append([]string(nil), fr.Attacks...),
		UnitIdx: append([]int(nil), fr.UnitIdx...),
	}
	if len(X) > 0 {
		res.Pred, res.Scores = mlkit.PredictProba(st.Clf, X)
	}
	ctx.result = res
	if ctx.stream != nil {
		ctx.stream.lastResult = res
	}
	// Prequential (test-then-train): the chunk was scored by the model as
	// fitted before it arrived; now absorb it as labelled training data.
	if ctx.online() && len(X) > 0 && fr.Labels != nil {
		if pf, ok := st.Clf.(mlkit.PartialFitter); ok {
			if err := pf.PartialFit(X, fr.Labels); err != nil {
				return nil, fmt.Errorf("train: prequential partial fit: %w", err)
			}
			countPartialFitRows(ctx, len(X))
		}
	}
	return *st, nil
}

// opTrainOnline is the ModeTrain body of an online streaming pass: the
// first chunk builds the model (wrapping batch-only families in a
// reservoir retrainer), every chunk partial-fits it in stream order.
func opTrainOnline(ctx *opCtx, spec ModelSpec, X [][]float64, fr *Frame) (Value, error) {
	var pf mlkit.PartialFitter
	if c, ok := ctx.carry(); ok {
		pf = c.(mlkit.PartialFitter)
	} else {
		clf, err := buildClassifier(spec, ctx.seed)
		if err != nil {
			return nil, err
		}
		pf = mlkit.AsPartialFitter(clf, ctx.seed)
		ctx.setCarry(pf)
		ctx.setState(&Trained{Spec: spec, Clf: pf})
	}
	if len(X) > 0 {
		if err := pf.PartialFit(X, fr.Labels); err != nil {
			return nil, fmt.Errorf("train: partial fit: %w", err)
		}
		countPartialFitRows(ctx, len(X))
	}
	st := ctx.getState().(*Trained)
	return *st, nil
}

// countPartialFitRows bumps the online-learning row counter.
func countPartialFitRows(ctx *opCtx, n int) {
	if ctx.metrics != nil {
		ctx.metrics.Counter("lumen_partial_fit_rows_total",
			"Rows absorbed by online partial-fit model updates.").Add(uint64(n))
	}
}
