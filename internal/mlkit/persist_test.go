package mlkit

import (
	"path/filepath"
	"testing"
)

func roundTrip(t *testing.T, c Classifier) Classifier {
	t.Helper()
	data, err := MarshalModel(c)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalModel(data)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func assertSamePredictions(t *testing.T, a, b Classifier, X [][]float64) {
	t.Helper()
	pa, pb := a.Predict(X), b.Predict(X)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("prediction %d differs after round trip: %d vs %d", i, pa[i], pb[i])
		}
	}
}

func TestPersistDecisionTree(t *testing.T) {
	X, y := xorData(400, 401)
	tr := &DecisionTree{Seed: 1}
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	assertSamePredictions(t, tr, roundTrip(t, tr), X)
}

func TestPersistRandomForest(t *testing.T) {
	X, y := blobs(300, 4, 2, 403)
	f := &RandomForest{NTrees: 10, Seed: 1}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, f)
	assertSamePredictions(t, f, loaded, X)
	// Probabilities must survive too (they drive AUC).
	pa := f.Proba(X)
	pb := loaded.(*RandomForest).Proba(X)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("proba %d differs: %v vs %v", i, pa[i], pb[i])
		}
	}
}

func TestPersistGaussianNB(t *testing.T) {
	X, y := blobs(300, 3, 3, 407)
	g := &GaussianNB{}
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	assertSamePredictions(t, g, roundTrip(t, g), X)
}

func TestPersistGaussianNBWithMissingClass(t *testing.T) {
	// Labels 0 and 2 only: class 1's prior is -Inf, which JSON cannot
	// carry directly — the sentinel path must restore it.
	X := [][]float64{{0}, {0.1}, {6}, {6.1}}
	y := []int{0, 0, 2, 2}
	g := &GaussianNB{}
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, g)
	assertSamePredictions(t, g, loaded, X)
	for _, p := range loaded.Predict(X) {
		if p == 1 {
			t.Fatal("restored model predicted the absent class")
		}
	}
}

func TestSaveLoadModelFile(t *testing.T) {
	X, y := blobs(100, 2, 3, 409)
	tr := &DecisionTree{Seed: 1}
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := SaveModel(path, tr); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePredictions(t, tr, loaded, X)
}

func TestPersistRejectsUnsupported(t *testing.T) {
	if _, err := MarshalModel(&KNN{}); err == nil {
		t.Error("KNN persistence should be unsupported")
	}
	if _, err := UnmarshalModel([]byte(`{"version":1,"type":"alien","data":{}}`)); err == nil {
		t.Error("unknown type should fail")
	}
	if _, err := UnmarshalModel([]byte(`{"version":9,"type":"decision_tree","data":{}}`)); err == nil {
		t.Error("unknown version should fail")
	}
	if _, err := UnmarshalModel([]byte("not json")); err == nil {
		t.Error("garbage should fail")
	}
}

// TestUnmarshalRejectsMalformedTrees pins the load-time structure check:
// a tree whose walk would index past the node table or never reach a
// leaf must be refused at the boundary instead of panicking or hanging
// the first Predict.
func TestUnmarshalRejectsMalformedTrees(t *testing.T) {
	cases := map[string]string{
		"child out of range": `{"version":1,"type":"decision_tree","data":{"classes":2,"nodes":[{"f":0,"l":7,"r":9}]}}`,
		"self loop":          `{"version":1,"type":"decision_tree","data":{"classes":2,"nodes":[{"f":0,"l":0,"r":0}]}}`,
		"back edge":          `{"version":1,"type":"decision_tree","data":{"classes":2,"nodes":[{"f":0,"l":1,"r":2},{"f":-1,"p":[1,0]},{"f":1,"l":0,"r":1}]}}`,
		"negative child":     `{"version":1,"type":"decision_tree","data":{"classes":2,"nodes":[{"f":0,"l":-1,"r":1},{"f":-1,"p":[1,0]}]}}`,
		"bad feature":        `{"version":1,"type":"decision_tree","data":{"classes":2,"nodes":[{"f":-2,"l":1,"r":2},{"f":-1,"p":[1,0]},{"f":-1,"p":[0,1]}]}}`,
		"short leaf":         `{"version":1,"type":"decision_tree","data":{"classes":2,"nodes":[{"f":-1,"p":[1]}]}}`,
		"forest bad tree":    `{"version":1,"type":"random_forest","data":{"classes":2,"trees":[{"classes":2,"nodes":[{"f":0,"l":0,"r":0}]}]}}`,
		"empty tree":         `{"version":1,"type":"decision_tree","data":{"classes":2,"nodes":[]}}`,
		"forest class width": `{"version":1,"type":"random_forest","data":{"classes":2,"trees":[{"classes":3,"nodes":[{"f":-1,"p":[1,0,0]}]}]}}`,
	}
	for name, js := range cases {
		if c, err := UnmarshalModel([]byte(js)); err == nil {
			t.Errorf("%s: UnmarshalModel accepted a malformed model (%T)", name, c)
		}
	}
	ok := `{"version":1,"type":"random_forest","data":{"classes":2,"trees":[{"classes":2,"nodes":[{"f":0,"t":0.5,"l":1,"r":2},{"f":-1,"p":[1,0]},{"f":-1,"p":[0,1]}]}]}}`
	c, err := UnmarshalModel([]byte(ok))
	if err != nil {
		t.Fatalf("well-formed forest refused: %v", err)
	}
	if got := c.Predict([][]float64{{0}, {1}}); got[0] != 0 || got[1] != 1 {
		t.Fatalf("well-formed forest predicts %v, want [0 1]", got)
	}
}

// TestPersistForestMissingClassInBootstrap checks that a multi-class
// forest whose trees' bootstraps missed the highest label still round
// trips: every tree carries the forest's class width.
func TestPersistForestMissingClassInBootstrap(t *testing.T) {
	X, y := blobs(200, 3, 2, 409)
	// One lone row of class 2: most bootstraps will miss it.
	X = append(X, []float64{50, 50, 50})
	y = append(y, 2)
	f := &RandomForest{NTrees: 20, Seed: 3}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i, tr := range f.trees {
		if tr.classes != f.classes {
			t.Fatalf("tree %d has %d classes, forest %d", i, tr.classes, f.classes)
		}
	}
	loaded := roundTrip(t, f)
	assertSamePredictions(t, f, loaded, X)
}
