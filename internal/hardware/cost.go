package hardware

import "fmt"

// Table I / §V-A constants of the 16 nm multichip system.
const (
	// DRAMPJPerBit is the off-package DRAM access energy (8.75 pJ/bit,
	// 364.58× an 8-bit MAC).
	DRAMPJPerBit = 8.75
	// D2DPJPerBit is the die-to-die GRS link energy (1.17 pJ/bit, a pair of
	// D2D PHYs, 53.75× a MAC) [Wilson et al., ISSCC'18].
	D2DPJPerBit = 1.17
	// MACPJPerOp is the energy of one 8-bit MAC at 500 MHz (0.024 pJ/op).
	MACPJPerOp = 0.024
	// MACAreaMM2 is the area of one 8-bit MAC (135.1 µm²).
	MACAreaMM2 = 135.1e-6
	// GRSPHYAreaMM2 is the area of the die-to-die GRS macro (0.38 mm²).
	GRSPHYAreaMM2 = 0.38
	// DDRPHYAreaMM2 is the modeled off-chip DDR PHY share per chiplet.
	DDRPHYAreaMM2 = 0.20
	// FreqHz is the nominal operating frequency (500 MHz).
	FreqHz = 500e6
)

// Reference per-bit energies quoted by Table I for the two SRAM levels; the
// fitted linear model must agree at these anchors.
const (
	L1RefBytes    = 1 * kb
	L1RefPJPerBit = 0.30
	L2RefBytes    = 32 * kb
	L2RefPJPerBit = 0.81
	RFRefBytes    = 1536
	RFRefPJPerRMW = 0.104
)

// Bandwidths for the tile-level runtime simulator, in bytes per cycle at
// FreqHz. The DRAM figure is per DRAM channel (the package integrates one
// channel per chiplet behind a crossbar, §IV-C); the D2D figure is per
// directional ring link (GRS, 25 Gb/s/pin class); the bus figure is the
// chiplet central multicast bus.
const (
	DRAMBytesPerCycle = 16.0
	D2DBytesPerCycle  = 25.0
	BusBytesPerCycle  = 128.0
	// PackageDRAMBytesPerCycle is the aggregate DRAM bandwidth of the
	// package memory system (four channels, §IV-C), held fixed across
	// chiplet granularities so the pre-design flow compares designs against
	// the same memory system.
	PackageDRAMBytesPerCycle = 64.0
)

// CostModel converts accesses and configurations into energy (pJ) and area
// (mm²). It is built by fitting the Fig 10 linear model to the memory macro
// libraries.
type CostModel struct {
	sramEnergy Linear // pJ/bit vs bytes
	sramArea   Linear // mm² vs bytes
	rfEnergy   Linear // pJ/RMW vs bytes
	rfArea     Linear // mm² vs bytes
}

// NewCostModel fits the SRAM and RF libraries and returns the cost model.
func NewCostModel() (*CostModel, error) {
	m := &CostModel{}
	var err error
	sram, rf := SRAMLibrary(), RFLibrary()
	// The within-bank energy line is fitted on macros up to the bank size;
	// larger macros follow the banked model of SRAMPJPerBit.
	var inBank []MemPoint
	for _, p := range sram {
		if p.SizeBytes <= BankBytes {
			inBank = append(inBank, p)
		}
	}
	if m.sramEnergy, err = Fit(inBank, func(p MemPoint) float64 { return p.EnergyPJ }); err != nil {
		return nil, fmt.Errorf("hardware: fitting SRAM energy: %w", err)
	}
	if m.sramArea, err = Fit(sram, func(p MemPoint) float64 { return p.AreaMM2 }); err != nil {
		return nil, fmt.Errorf("hardware: fitting SRAM area: %w", err)
	}
	if m.rfEnergy, err = Fit(rf, func(p MemPoint) float64 { return p.EnergyPJ }); err != nil {
		return nil, fmt.Errorf("hardware: fitting RF energy: %w", err)
	}
	if m.rfArea, err = Fit(rf, func(p MemPoint) float64 { return p.AreaMM2 }); err != nil {
		return nil, fmt.Errorf("hardware: fitting RF area: %w", err)
	}
	return m, nil
}

// MustCostModel is NewCostModel for initialization paths that cannot fail at
// runtime (the built-in libraries are statically well-formed).
func MustCostModel() *CostModel {
	m, err := NewCostModel()
	if err != nil {
		panic(err)
	}
	return m
}

// SRAM macros larger than one bank are assembled from BankBytes-sized banks
// behind a column multiplexer (§V-A selects "the appropriate multiplexer
// width and number of banks ... for the optimal area and power"): an access
// activates a single bank, so the per-bit energy follows the linear Fig 10
// model up to the bank size and then grows only by the inter-bank routing
// term per extra bank.
const (
	BankBytes           = 32 * kb
	BankRoutingPJPerBit = 0.002
)

// SRAMPJPerBit returns the access energy of an SRAM macro of the given size.
func (m *CostModel) SRAMPJPerBit(sizeBytes int) float64 {
	if sizeBytes <= BankBytes {
		return m.sramEnergy.At(sizeBytes)
	}
	banks := (sizeBytes + BankBytes - 1) / BankBytes
	return m.sramEnergy.At(BankBytes) + float64(banks-1)*BankRoutingPJPerBit
}

// SRAMAreaMM2 returns the area of an SRAM macro of the given size.
func (m *CostModel) SRAMAreaMM2(sizeBytes int) float64 { return m.sramArea.At(sizeBytes) }

// RFRMWPJ returns the energy of one 24-bit read-modify-write on a register
// file of the given size.
func (m *CostModel) RFRMWPJ(sizeBytes int) float64 { return m.rfEnergy.At(sizeBytes) }

// RFAreaMM2 returns the register-file area at the given size.
func (m *CostModel) RFAreaMM2(sizeBytes int) float64 { return m.rfArea.At(sizeBytes) }

// ChipletAreaMM2 returns the silicon area of one chiplet: MAC array, per-core
// SRAM/RF, chiplet-level SRAM and the off-chip PHYs. Controller and misc IP
// are ignored, matching §V-A.
func (m *CostModel) ChipletAreaMM2(c Config) float64 {
	perCore := float64(c.MACsPerCore())*MACAreaMM2 +
		m.SRAMAreaMM2(c.AL1Bytes) + m.SRAMAreaMM2(c.WL1Bytes) + m.RFAreaMM2(c.OL1Bytes)
	chiplet := float64(c.Cores)*perCore + m.SRAMAreaMM2(c.AL2Bytes)
	if c.OL2Bytes > 0 {
		chiplet += m.SRAMAreaMM2(c.OL2Bytes)
	}
	return chiplet + GRSPHYAreaMM2 + DDRPHYAreaMM2
}

// Seconds converts a cycle count at the nominal frequency.
func Seconds(cycles int64) float64 { return float64(cycles) / FreqHz }
