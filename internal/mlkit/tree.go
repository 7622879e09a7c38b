package mlkit

import "sort"

// DecisionTree is a CART classifier using Gini impurity with axis-aligned
// numeric splits. The zero value trains with sensible defaults.
type DecisionTree struct {
	// MaxDepth limits tree depth; 0 means 24.
	MaxDepth int
	// MinSamplesLeaf is the minimum rows per leaf; 0 means 1.
	MinSamplesLeaf int
	// MaxFeatures is the number of candidate features per split; 0 means
	// all features (set by RandomForest to sqrt(d)).
	MaxFeatures int
	// Seed drives feature subsampling when MaxFeatures < d.
	Seed int64

	nodes   []treeNode
	classes int
	rng     *RNG
	// minClasses widens the class count past the labels seen in y: a
	// forest sets it so trees whose bootstrap missed the highest label
	// still carry the forest's full leaf distribution.
	minClasses int
}

type treeNode struct {
	feature   int // -1 for leaf
	threshold float64
	left      int32
	right     int32
	// proba holds the class distribution at a leaf.
	proba []float64
}

// Fit grows the tree on X, y.
func (t *DecisionTree) Fit(X [][]float64, y []int) error {
	d, err := checkXY(X, y)
	if err != nil {
		return err
	}
	t.classes = 0
	for _, label := range y {
		if label+1 > t.classes {
			t.classes = label + 1
		}
	}
	t.classes = max(t.classes, 2, t.minClasses)
	t.rng = NewRNG(t.Seed)
	t.nodes = t.nodes[:0]
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	t.grow(X, y, idx, 0, d)
	return nil
}

func (t *DecisionTree) maxDepth() int {
	if t.MaxDepth == 0 {
		return 24
	}
	return t.MaxDepth
}

func (t *DecisionTree) minLeaf() int {
	if t.MinSamplesLeaf == 0 {
		return 1
	}
	return t.MinSamplesLeaf
}

// grow recursively builds the subtree over rows idx and returns its node id.
func (t *DecisionTree) grow(X [][]float64, y []int, idx []int, depth, d int) int32 {
	counts := make([]float64, t.classes)
	for _, i := range idx {
		counts[y[i]]++
	}
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, treeNode{feature: -1})

	pure := false
	for _, c := range counts {
		if c == float64(len(idx)) {
			pure = true
			break
		}
	}
	if pure || depth >= t.maxDepth() || len(idx) < 2*t.minLeaf() {
		t.makeLeaf(id, counts, len(idx))
		return id
	}

	feat, thr, ok := t.bestSplit(X, y, idx, d)
	if !ok {
		t.makeLeaf(id, counts, len(idx))
		return id
	}

	var left, right []int
	for _, i := range idx {
		if X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < t.minLeaf() || len(right) < t.minLeaf() {
		t.makeLeaf(id, counts, len(idx))
		return id
	}
	l := t.grow(X, y, left, depth+1, d)
	r := t.grow(X, y, right, depth+1, d)
	t.nodes[id].feature = feat
	t.nodes[id].threshold = thr
	t.nodes[id].left = l
	t.nodes[id].right = r
	return id
}

func (t *DecisionTree) makeLeaf(id int32, counts []float64, n int) {
	proba := make([]float64, len(counts))
	if n > 0 {
		for j, c := range counts {
			proba[j] = c / float64(n)
		}
	}
	t.nodes[id].proba = proba
}

// bestSplit scans candidate features for the Gini-optimal threshold.
func (t *DecisionTree) bestSplit(X [][]float64, y []int, idx []int, d int) (feat int, thr float64, ok bool) {
	feats := t.candidateFeatures(d)
	bestGain := 0.0
	n := float64(len(idx))

	parentCounts := make([]float64, t.classes)
	for _, i := range idx {
		parentCounts[y[i]]++
	}
	parentGini := giniFromCounts(parentCounts, n)

	type sv struct {
		v float64
		y int
	}
	vals := make([]sv, len(idx))
	leftCounts := make([]float64, t.classes)
	rightCounts := make([]float64, t.classes)

	for _, f := range feats {
		for k, i := range idx {
			vals[k] = sv{X[i][f], y[i]}
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
		for j := range leftCounts {
			leftCounts[j] = 0
		}
		copy(rightCounts, parentCounts)
		for k := 0; k < len(vals)-1; k++ {
			leftCounts[vals[k].y]++
			rightCounts[vals[k].y]--
			if vals[k].v == vals[k+1].v {
				continue
			}
			nl, nr := float64(k+1), n-float64(k+1)
			g := parentGini - (nl/n)*giniFromCounts(leftCounts, nl) - (nr/n)*giniFromCounts(rightCounts, nr)
			if g > bestGain+1e-12 {
				bestGain = g
				feat = f
				thr = (vals[k].v + vals[k+1].v) / 2
				ok = true
			}
		}
	}
	return feat, thr, ok
}

func (t *DecisionTree) candidateFeatures(d int) []int {
	if t.MaxFeatures <= 0 || t.MaxFeatures >= d {
		all := make([]int, d)
		for i := range all {
			all[i] = i
		}
		return all
	}
	perm := t.rng.Perm(d)
	return perm[:t.MaxFeatures]
}

func giniFromCounts(counts []float64, n float64) float64 {
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := c / n
		g -= p * p
	}
	return g
}

// Predict returns the majority class at each row's leaf.
func (t *DecisionTree) Predict(X [][]float64) []int {
	pred, _ := t.PredictProba(X)
	return pred
}

// Proba returns the positive-class (label 1) leaf fraction per row.
func (t *DecisionTree) Proba(X [][]float64) []float64 {
	_, proba := t.PredictProba(X)
	return proba
}

// PredictProba walks each row to its leaf once and reports the leaf's
// majority class and positive-class fraction.
func (t *DecisionTree) PredictProba(X [][]float64) ([]int, []float64) {
	pred := make([]int, len(X))
	proba := make([]float64, len(X))
	for i, row := range X {
		p := t.leafProba(row)
		pred[i] = ArgMax(p)
		if len(p) > 1 {
			proba[i] = p[1]
		}
	}
	return pred, proba
}

func (t *DecisionTree) leafProba(row []float64) []float64 {
	if len(t.nodes) == 0 {
		return []float64{1, 0}
	}
	id := int32(0)
	for {
		n := &t.nodes[id]
		if n.feature < 0 {
			return n.proba
		}
		if row[n.feature] <= n.threshold {
			id = n.left
		} else {
			id = n.right
		}
	}
}

// Depth reports the maximum depth of the fitted tree (root = 0).
func (t *DecisionTree) Depth() int {
	if len(t.nodes) == 0 {
		return 0
	}
	var walk func(id int32) int
	walk = func(id int32) int {
		n := &t.nodes[id]
		if n.feature < 0 {
			return 0
		}
		l, r := walk(n.left), walk(n.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return walk(0)
}

// NodeCount reports the number of nodes in the fitted tree.
func (t *DecisionTree) NodeCount() int { return len(t.nodes) }
