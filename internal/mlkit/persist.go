package mlkit

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// Model persistence: the paper's template (Fig. 4) ends with a train op
// whose output is a save_path. SaveModel/LoadModel serialize the fitted
// tree-family models and naive Bayes — the classifiers operators deploy —
// as versioned JSON. (Network-based models retrain in seconds here, so
// persistence targets the deployable family.)

// persistEnvelope wraps a serialized model with its type tag.
type persistEnvelope struct {
	Version int             `json:"version"`
	Type    string          `json:"type"`
	Data    json.RawMessage `json:"data"`
}

// treeDTO serializes a fitted DecisionTree.
type treeDTO struct {
	Nodes   []nodeDTO `json:"nodes"`
	Classes int       `json:"classes"`
}

type nodeDTO struct {
	Feature   int       `json:"f"`
	Threshold float64   `json:"t"`
	Left      int32     `json:"l"`
	Right     int32     `json:"r"`
	Proba     []float64 `json:"p,omitempty"`
}

func (t *DecisionTree) dto() treeDTO {
	out := treeDTO{Classes: t.classes, Nodes: make([]nodeDTO, len(t.nodes))}
	for i, n := range t.nodes {
		out.Nodes[i] = nodeDTO{Feature: n.feature, Threshold: n.threshold, Left: n.left, Right: n.right, Proba: n.proba}
	}
	return out
}

// fromDTO restores a tree after checking that walking it terminates
// without indexing out of range. grow emits nodes in preorder, so every
// fitted tree's children sit strictly after their parent: requiring
// i < left, right < len(nodes) rules out both dangling links and cycles.
// Leaves (feature -1) must carry one probability per class, and a
// fitted tree has at least its root.
func (t *DecisionTree) fromDTO(d treeDTO) error {
	if len(d.Nodes) == 0 {
		return fmt.Errorf("tree has no nodes")
	}
	for i, n := range d.Nodes {
		switch {
		case n.Feature == -1:
			if len(n.Proba) != d.Classes {
				return fmt.Errorf("tree node %d: leaf has %d class probabilities, want %d", i, len(n.Proba), d.Classes)
			}
		case n.Feature < -1:
			return fmt.Errorf("tree node %d: invalid feature index %d", i, n.Feature)
		case int(n.Left) <= i || int(n.Right) <= i || int(n.Left) >= len(d.Nodes) || int(n.Right) >= len(d.Nodes):
			return fmt.Errorf("tree node %d: children %d/%d must lie in (%d, %d)", i, n.Left, n.Right, i, len(d.Nodes))
		}
	}
	t.classes = d.Classes
	t.nodes = make([]treeNode, len(d.Nodes))
	for i, n := range d.Nodes {
		t.nodes[i] = treeNode{feature: n.Feature, threshold: n.Threshold, left: n.Left, right: n.Right, proba: n.Proba}
	}
	return nil
}

// forestDTO serializes a fitted RandomForest.
type forestDTO struct {
	Trees   []treeDTO `json:"trees"`
	Classes int       `json:"classes"`
}

// nbDTO serializes a fitted GaussianNB.
type nbDTO struct {
	Classes  int         `json:"classes"`
	Priors   []float64   `json:"priors"`
	Means    [][]float64 `json:"means"`
	Vars     [][]float64 `json:"vars"`
	Presence []bool      `json:"presence"`
}

// MarshalModel serializes a supported fitted classifier to JSON.
func MarshalModel(c Classifier) ([]byte, error) {
	var env persistEnvelope
	env.Version = 1
	var err error
	switch m := c.(type) {
	case *DecisionTree:
		env.Type = "decision_tree"
		env.Data, err = json.Marshal(m.dto())
	case *RandomForest:
		env.Type = "random_forest"
		dto := forestDTO{Classes: m.classes}
		for _, tr := range m.trees {
			dto.Trees = append(dto.Trees, tr.dto())
		}
		env.Data, err = json.Marshal(dto)
	case *GaussianNB:
		env.Type = "gaussian_nb"
		// Infinities (empty-class priors) are not valid JSON; encode as
		// a very negative sentinel restored on load.
		pri := append([]float64(nil), m.priors...)
		for i, p := range pri {
			if math.IsInf(p, -1) || p < -1e300 {
				pri[i] = -1e300
			}
		}
		env.Data, err = json.Marshal(nbDTO{
			Classes: m.classes, Priors: pri, Means: m.means, Vars: m.vars, Presence: m.presence,
		})
	default:
		return nil, fmt.Errorf("mlkit: MarshalModel: unsupported classifier %T", c)
	}
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(env, "", " ")
}

// UnmarshalModel reconstructs a classifier serialized by MarshalModel.
func UnmarshalModel(data []byte) (Classifier, error) {
	var env persistEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("mlkit: UnmarshalModel: %w", err)
	}
	if env.Version != 1 {
		return nil, fmt.Errorf("mlkit: UnmarshalModel: unsupported version %d", env.Version)
	}
	switch env.Type {
	case "decision_tree":
		var dto treeDTO
		if err := json.Unmarshal(env.Data, &dto); err != nil {
			return nil, err
		}
		t := &DecisionTree{}
		if err := t.fromDTO(dto); err != nil {
			return nil, fmt.Errorf("mlkit: UnmarshalModel: %w", err)
		}
		return t, nil
	case "random_forest":
		var dto forestDTO
		if err := json.Unmarshal(env.Data, &dto); err != nil {
			return nil, err
		}
		f := &RandomForest{classes: dto.Classes, NTrees: len(dto.Trees)}
		for i, td := range dto.Trees {
			if td.Classes != dto.Classes {
				return nil, fmt.Errorf("mlkit: UnmarshalModel: forest tree %d has %d classes, forest has %d", i, td.Classes, dto.Classes)
			}
			t := &DecisionTree{}
			if err := t.fromDTO(td); err != nil {
				return nil, fmt.Errorf("mlkit: UnmarshalModel: forest tree %d: %w", i, err)
			}
			f.trees = append(f.trees, t)
		}
		return f, nil
	case "gaussian_nb":
		var dto nbDTO
		if err := json.Unmarshal(env.Data, &dto); err != nil {
			return nil, err
		}
		g := &GaussianNB{classes: dto.Classes, priors: dto.Priors, means: dto.Means, vars: dto.Vars, presence: dto.Presence}
		for i, p := range g.priors {
			if p <= -1e300 {
				g.priors[i] = math.Inf(-1)
			}
		}
		return g, nil
	}
	return nil, fmt.Errorf("mlkit: UnmarshalModel: unknown type %q", env.Type)
}

// SaveModel writes a supported fitted classifier to path.
func SaveModel(path string, c Classifier) error {
	data, err := MarshalModel(c)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadModel reads a classifier written by SaveModel.
func LoadModel(path string) (Classifier, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return UnmarshalModel(data)
}
