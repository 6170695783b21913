package engine

import (
	"testing"

	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/workload"
)

// TestKeyFormatsGolden pins the exact text of the journal and persistent
// cache keys. Checkpoint journals and -cache-dir stores written by earlier
// builds are looked up by these strings, so any change to them silently
// orphans every stored point and search result.
func TestKeyFormatsGolden(t *testing.T) {
	cfg := mapper.Config{}.WithDefaults()
	hw := hardware.CaseStudy()
	mask := hardware.FaultMask{Chiplets: 4, Dead: 0b0010}
	sig := modelsSig([]workload.Model{tinyModel()})
	faulty := cfg
	faulty.Fault = mask
	cases := []struct{ name, got, want string }{
		{"sweep", sweepPointKey(sig, cfg, hw),
			`sweep|tiny@16/4|obj0-keep8-rottrue|4-8-8-8 (O-L1 1536B, A-L1 800B, W-L1 18432B, A-L2 65536B)`},
		{"sweep/fault", sweepPointKey(sig, faulty, hw),
			`sweep|tiny@16/4|obj0-keep8-rottrue|4-8-8-8 (O-L1 1536B, A-L1 800B, W-L1 18432B, A-L2 65536B)|fault:chiplet1`},
		{"scenario/healthy", scenarioPointKey(sig, cfg, hw, hardware.FaultMask{}.Canonical(hw)),
			`scenario|tiny@16/4|obj0-keep8-rottrue|4-8-8-8 (O-L1 1536B, A-L1 800B, W-L1 18432B, A-L2 65536B)|healthy`},
		{"scenario/fault", scenarioPointKey(sig, cfg, hw, mask.Canonical(hw)),
			`scenario|tiny@16/4|obj0-keep8-rottrue|4-8-8-8 (O-L1 1536B, A-L1 800B, W-L1 18432B, A-L2 65536B)|chiplet1`},
		{"persist", persistKey(searchKey{shape: ShapeOf(tinyLayer("l")), hw: HWOf(hw), cfg: cacheCfg(cfg)}),
			`search|v1|shape:{HO:16 WO:16 CO:32 CI:16 R:3 S:3 StrideH:1 StrideW:1 PadH:1 PadW:1 Groups:1}|hw:{"Chiplets":4,"Cores":8,"Lanes":8,"Vector":8,"OL1Bytes":1536,"AL1Bytes":800,"WL1Bytes":18432,"AL2Bytes":65536,"OL2Bytes":32768,"Topology":"ring"}|obj0|keep8|rottrue|fault:healthy`},
		{"persist/fault", persistKey(searchKey{shape: ShapeOf(tinyLayer("l")), hw: HWOf(hw), cfg: cacheCfg(faulty)}),
			`search|v1|shape:{HO:16 WO:16 CO:32 CI:16 R:3 S:3 StrideH:1 StrideW:1 PadH:1 PadW:1 Groups:1}|hw:{"Chiplets":4,"Cores":8,"Lanes":8,"Vector":8,"OL1Bytes":1536,"AL1Bytes":800,"WL1Bytes":18432,"AL2Bytes":65536,"OL2Bytes":32768,"Topology":"ring"}|obj0|keep8|rottrue|fault:chiplet1`},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s key:\n got %q\nwant %q", c.name, c.got, c.want)
		}
	}
}
