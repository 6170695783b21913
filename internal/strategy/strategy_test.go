package strategy

import (
	"bytes"
	"strings"
	"testing"

	"nnbaton/internal/hardware"
	"nnbaton/internal/mapping"
	"nnbaton/internal/workload"
)

func sampleFile(t *testing.T) File {
	t.Helper()
	l := workload.Layer{Model: "t", Name: "conv", HO: 56, WO: 56, CO: 64, CI: 64,
		R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	m := mapping.Mapping{
		PackageSpatial: mapping.SpatialC, PackageTemporal: mapping.ChannelPriority,
		ChipletSpatial: mapping.SpatialC, ChipletCSplit: 8, ChipletPattern: mapping.Pattern{Rows: 1, Cols: 1},
		ChipletTemporal: mapping.PlanePriority,
		HOt:             14, WOt: 14, COt: 16, HOc: 4, WOc: 4, Rotate: true,
	}
	return File{
		Model: "t", Input: 224, Hardware: hardware.CaseStudy(),
		Layers: []LayerStrategy{{Layer: l, Mapping: m, EnergyPJ: 1e6, Cycles: 1000}},
	}
}

func TestRoundTrip(t *testing.T) {
	f := sampleFile(t)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Model != f.Model || got.Input != f.Input || got.Hardware != f.Hardware {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Layers) != 1 || got.Layers[0].Mapping != f.Layers[0].Mapping ||
		got.Layers[0].Layer != f.Layers[0].Layer {
		t.Errorf("layers mismatch: %+v", got.Layers)
	}
	if got.Version != Version {
		t.Errorf("version = %d", got.Version)
	}
}

func TestReadRejectsBadVersion(t *testing.T) {
	f := sampleFile(t)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	s := strings.Replace(buf.String(), `"version": 1`, `"version": 99`, 1)
	if _, err := Read(strings.NewReader(s)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("expected version error, got %v", err)
	}
}

func TestReadRejectsInvalidMapping(t *testing.T) {
	f := sampleFile(t)
	f.Layers[0].Mapping.HOt = 0
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil {
		t.Error("expected mapping validation error")
	}
}

func TestReadRejectsUnknownFields(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"version":1,"bogus":true}`)); err == nil {
		t.Error("expected unknown-field error")
	}
	if _, err := Read(strings.NewReader(`not json`)); err == nil {
		t.Error("expected decode error")
	}
}

func TestReprice(t *testing.T) {
	f := sampleFile(t)
	cm := hardware.MustCostModel()
	opts, err := Reprice(f, cm)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts) != 1 || opts[0].Analysis.Traffic().MACs != f.Layers[0].Layer.MACs() {
		t.Errorf("repriced %d layers, want 1 with the layer's MACs", len(opts))
	}
	if opts[0].Energy.Total() <= 0 || opts[0].Cycles <= 0 {
		t.Errorf("repriced option has no cost: %v, %d cycles", opts[0].Energy, opts[0].Cycles)
	}
	// Repricing an invalid strategy fails cleanly.
	f.Hardware.Chiplets = 3
	f.Layers[0].Mapping.COt = 1 // stale vs the new chiplet count
	if _, err := Reprice(f, cm); err == nil {
		t.Error("expected reprice error")
	}
}
