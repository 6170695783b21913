// Package strategy serializes NN-Baton mapping decisions. The post-design
// flow's report — spatial partition dimensions and patterns, temporal loop
// orders and tile counts — "can be potentially used for the optimization of
// the hardware compiler" (§IV-D); this package defines that interchange
// format (JSON) and validates strategies on load.
package strategy

import (
	"encoding/json"
	"fmt"
	"io"

	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/mapping"
	"nnbaton/internal/workload"
)

// Version identifies the strategy file schema.
const Version = 1

// LayerStrategy is the mapping decision for one layer plus its predicted
// cost, as evaluated by the C³P engine.
type LayerStrategy struct {
	Layer    workload.Layer  `json:"layer"`
	Mapping  mapping.Mapping `json:"mapping"`
	EnergyPJ float64         `json:"energy_pj"`
	Cycles   int64           `json:"cycles"`
}

// File is a complete post-design strategy for one model on one hardware
// configuration.
type File struct {
	Version  int             `json:"version"`
	Model    string          `json:"model"`
	Input    int             `json:"input_resolution"`
	Hardware hardware.Config `json:"hardware"`
	Layers   []LayerStrategy `json:"layers"`
}

// Write serializes the strategy as indented JSON.
func Write(w io.Writer, f File) error {
	f.Version = Version
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		return fmt.Errorf("strategy: encoding: %w", err)
	}
	return nil
}

// Read parses and validates a strategy file: the schema version must match,
// the hardware must be well-formed, and every layer's mapping must still
// validate against that layer and hardware.
func Read(r io.Reader) (File, error) {
	var f File
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return File{}, fmt.Errorf("strategy: decoding: %w", err)
	}
	if f.Version != Version {
		return File{}, fmt.Errorf("strategy: unsupported version %d (want %d)", f.Version, Version)
	}
	if err := f.Hardware.Validate(); err != nil {
		return File{}, err
	}
	for i, ls := range f.Layers {
		if err := ls.Mapping.Validate(ls.Layer, f.Hardware); err != nil {
			return File{}, fmt.Errorf("strategy: layer %d (%s): %w", i, ls.Layer.Name, err)
		}
	}
	return f, nil
}

// Reprice re-prices every layer of a loaded strategy on its hardware through
// the mapper's pricing kernel, returning one option per layer in file order —
// the same energy and cycles the search reports for those mappings. It
// verifies that a strategy file remains executable (e.g. after hand edits)
// and provides the compiler with fresh per-level access counts.
func Reprice(f File, cm *hardware.CostModel) ([]mapper.Option, error) {
	fab, err := mapper.NewFabric(f.Hardware, hardware.FaultMask{}, cm)
	if err != nil {
		return nil, fmt.Errorf("strategy: repricing: %w", err)
	}
	opts := make([]mapper.Option, len(f.Layers))
	for i, ls := range f.Layers {
		if opts[i], err = fab.Evaluate(ls.Layer, f.Hardware, ls.Mapping); err != nil {
			return nil, fmt.Errorf("strategy: repricing %s: %w", ls.Layer.Name, err)
		}
	}
	return opts, nil
}
