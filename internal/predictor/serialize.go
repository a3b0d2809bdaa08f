package predictor

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"predtop/internal/graphnn"
)

// savedModel is the on-disk representation of a trained predictor: the
// architecture spec to rebuild the network, the label scale, and every
// parameter tensor keyed by its stable name.
type savedModel struct {
	Version int
	Spec    graphnn.ModelSpec
	Scale   float64
	Shapes  map[string][2]int
	Params  map[string][]float64
}

const savedModelVersion = 1

// Save serializes a trained predictor to w (gob encoding).
func Save(w io.Writer, t Trained) error {
	sm := savedModel{
		Version: savedModelVersion,
		Spec:    t.Model.Spec(),
		Scale:   t.Scale,
		Shapes:  map[string][2]int{},
		Params:  map[string][]float64{},
	}
	for _, p := range t.Model.Params() {
		if _, dup := sm.Params[p.Name]; dup {
			return fmt.Errorf("predictor: duplicate parameter name %q", p.Name)
		}
		sm.Shapes[p.Name] = [2]int{p.V.R, p.V.C}
		sm.Params[p.Name] = append([]float64{}, p.V.Data...)
	}
	return gob.NewEncoder(w).Encode(sm)
}

// Load deserializes a trained predictor from r, rebuilding the architecture
// from its spec and restoring every parameter tensor. Anything a training run
// cannot have written — an invalid spec, a non-positive or non-finite label
// scale, a non-finite parameter — is an error, never a panic or a model that
// serves NaN.
func Load(r io.Reader) (Trained, error) {
	var sm savedModel
	if err := gob.NewDecoder(r).Decode(&sm); err != nil {
		return Trained{}, fmt.Errorf("predictor: decode: %w", err)
	}
	if sm.Version != savedModelVersion {
		return Trained{}, fmt.Errorf("predictor: unsupported model version %d", sm.Version)
	}
	if !(sm.Scale > 0) || math.IsInf(sm.Scale, 1) {
		return Trained{}, fmt.Errorf("predictor: label scale %v is not positive and finite", sm.Scale)
	}
	model, err := sm.Spec.Build(rand.New(rand.NewSource(0)))
	if err != nil {
		return Trained{}, err
	}
	seen := 0
	for _, p := range model.Params() {
		data, ok := sm.Params[p.Name]
		if !ok {
			return Trained{}, fmt.Errorf("predictor: missing parameter %q", p.Name)
		}
		shape := sm.Shapes[p.Name]
		if shape[0] != p.V.R || shape[1] != p.V.C || len(data) != p.V.Size() {
			return Trained{}, fmt.Errorf("predictor: parameter %q shape mismatch: saved %dx%d, model %dx%d",
				p.Name, shape[0], shape[1], p.V.R, p.V.C)
		}
		for _, v := range data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return Trained{}, fmt.Errorf("predictor: parameter %q holds %v", p.Name, v)
			}
		}
		copy(p.V.Data, data)
		seen++
	}
	if seen != len(sm.Params) {
		return Trained{}, fmt.Errorf("predictor: saved model has %d parameters, architecture expects %d",
			len(sm.Params), seen)
	}
	return Trained{Model: model, Scale: sm.Scale}, nil
}

// SaveFile writes a trained predictor to path atomically: a failed save
// leaves whatever path held before untouched, and a concurrent LoadFile
// (predtop-serve's SIGHUP reload) sees the old model or the new one, never a
// torn file.
func SaveFile(path string, t Trained) error {
	return AtomicWrite(path, func(w io.Writer) error { return Save(w, t) })
}

// AtomicWrite sends write's bytes to a temporary file (path + ".tmp*") in
// path's directory and renames it over path only once it is fully written and
// closed; on any failure the temporary file is removed and path is untouched.
// The run ledger writes its manifests through it too.
func AtomicWrite(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(f.Name(), 0o644) // CreateTemp's 0600 → the mode os.Create gave
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// LoadFile reads a trained predictor from path.
func LoadFile(path string) (Trained, error) {
	f, err := os.Open(path)
	if err != nil {
		return Trained{}, err
	}
	defer f.Close()
	return Load(f)
}
