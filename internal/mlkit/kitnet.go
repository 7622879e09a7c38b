package mlkit

import (
	"math"
	"sort"

	"lumen/internal/mlkit/linalg"
)

// KitNET is the anomaly detector at the heart of Kitsune (Mirsky et al.,
// NDSS'18; algorithm A06 in Lumen): an ensemble of small autoencoders, each
// responsible for a cluster of correlated features, whose reconstruction
// RMSEs feed an output autoencoder. The feature map is learned by
// agglomerative clustering on feature-correlation distance, capped at
// MaxAESize inputs per autoencoder.
type KitNET struct {
	// MaxAESize caps features per ensemble autoencoder; 0 means 10.
	MaxAESize int
	// GracePeriod is the number of leading rows used only to learn the
	// feature map and normalization before training begins; 0 means
	// min(len(X)/10, 1000) at Fit.
	GracePeriod int
	// Epochs over the training data for batch Fit; 0 means 10.
	Epochs int
	// LR for all autoencoders; 0 means 0.1.
	LR float64
	// Seed drives initialization.
	Seed int64

	clusters [][]int
	ensemble []*Autoencoder
	output   *Autoencoder
	norm     *MinMaxScaler
	obs      FitObserver
}

// SetFitObserver attaches a per-epoch progress observer; the reported
// loss is the epoch's mean output-autoencoder RMSE.
func (k *KitNET) SetFitObserver(o FitObserver) { k.obs = o }

// Fit learns the feature map from (a prefix of) X, then trains the ensemble
// and output layers on min-max–scaled data.
func (k *KitNET) Fit(X [][]float64) error {
	if _, err := checkXY(X, nil); err != nil {
		return err
	}
	grace := k.GracePeriod
	if grace == 0 {
		grace = len(X) / 10
		if grace > 1000 {
			grace = 1000
		}
	}
	if grace < 2 {
		grace = 2
	}
	if grace > len(X) {
		grace = len(X)
	}
	k.clusters = clusterFeatures(X[:grace], k.maxAE())
	k.norm = &MinMaxScaler{}
	if err := k.norm.Fit(X); err != nil {
		return err
	}
	Xs := k.norm.Transform(X)

	lr := k.LR
	if lr == 0 {
		lr = 0.1
	}
	epochs := k.Epochs
	if epochs == 0 {
		epochs = 10
	}
	k.ensemble = make([]*Autoencoder, len(k.clusters))
	for c, feats := range k.clusters {
		b := len(feats) * 3 / 4
		if b < 1 {
			b = 1
		}
		k.ensemble[c] = &Autoencoder{Hidden: []int{b}, LR: lr, Seed: k.Seed + int64(c)}
	}
	ob := len(k.clusters) * 3 / 4
	if ob < 1 {
		ob = 1
	}
	k.output = &Autoencoder{Hidden: []int{ob}, LR: lr, Seed: k.Seed + 7919}

	// Training stays row-by-row online SGD — Kitsune trains packet by
	// packet, and the detectors that threshold on training-score
	// distributions depend on that convergence behaviour. The flat
	// kernels still speed this path up (scratch reuse, ILP dot products);
	// the batched GEMM form is reserved for Score, where it changes
	// nothing but throughput.
	sub := make([]float64, 0, k.maxAE())
	tail := make([]float64, len(k.clusters))
	for e := 0; e < epochs; e++ {
		var rmseSum float64
		for _, row := range Xs {
			for c, feats := range k.clusters {
				sub = sub[:0]
				for _, f := range feats {
					sub = append(sub, row[f])
				}
				tail[c] = clamp01(k.ensemble[c].TrainOne(sub))
			}
			rmseSum += k.output.TrainOne(tail)
		}
		if k.obs != nil {
			k.obs.FitEpoch("kitnet", e, rmseSum/float64(len(Xs)))
		}
	}
	return nil
}

func (k *KitNET) maxAE() int {
	if k.MaxAESize == 0 {
		return 10
	}
	return k.MaxAESize
}

// Score returns the output autoencoder's RMSE per row (higher = more
// anomalous). Each ensemble member scores its feature subset over the
// whole frame in batched GEMM passes; the output AE then scores the
// assembled tail matrix the same way. The subsets are gathered into one
// flat matrix reused across clusters, and the tails fill another, so a
// call allocates per cluster nothing but the member's own scores.
func (k *KitNET) Score(X [][]float64) []float64 {
	Xs := k.norm.Transform(X)
	tails := linalg.NewDense(len(Xs), len(k.clusters))
	gather := &linalg.Dense{}
	sub := make([][]float64, len(Xs))
	for c, feats := range k.clusters {
		gather.Reshape(len(Xs), len(feats))
		for i, row := range Xs {
			dst := gather.Row(i)
			for j, f := range feats {
				dst[j] = row[f]
			}
			sub[i] = dst
		}
		for i, s := range k.ensemble[c].Score(sub) {
			tails.Set(i, c, clamp01(s))
		}
	}
	return k.output.Score(tails.RowViews())
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// clusterFeatures groups feature indices by complete-linkage agglomerative
// clustering on correlation distance 1-|r|, splitting any cluster larger
// than maxSize.
func clusterFeatures(X [][]float64, maxSize int) [][]int {
	d := len(X[0])
	cols := make([][]float64, d)
	for j := 0; j < d; j++ {
		col := make([]float64, len(X))
		for i, row := range X {
			col[i] = row[j]
		}
		cols[j] = col
	}
	dist := make([][]float64, d)
	for i := range dist {
		dist[i] = make([]float64, d)
		for j := range dist[i] {
			if i == j {
				continue
			}
			dist[i][j] = 1 - math.Abs(PearsonCorr(cols[i], cols[j]))
		}
	}
	clusters := make([][]int, d)
	for j := 0; j < d; j++ {
		clusters[j] = []int{j}
	}
	// Complete-linkage merge until no pair both fits maxSize and has
	// distance < 1 (i.e. some correlation).
	for {
		bestI, bestJ, bestD := -1, -1, math.Inf(1)
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				if len(clusters[i])+len(clusters[j]) > maxSize {
					continue
				}
				var dd float64
				for _, a := range clusters[i] {
					for _, b := range clusters[j] {
						if dist[a][b] > dd {
							dd = dist[a][b]
						}
					}
				}
				if dd < bestD {
					bestI, bestJ, bestD = i, j, dd
				}
			}
		}
		if bestI < 0 || bestD >= 0.999 {
			break
		}
		clusters[bestI] = append(clusters[bestI], clusters[bestJ]...)
		clusters = append(clusters[:bestJ], clusters[bestJ+1:]...)
	}
	for i := range clusters {
		sort.Ints(clusters[i])
	}
	sort.Slice(clusters, func(a, b int) bool { return clusters[a][0] < clusters[b][0] })
	return clusters
}

// Clusters exposes the learned feature map (for tests and introspection).
func (k *KitNET) Clusters() [][]int { return k.clusters }
