package pixelbox_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/pathology"
	"repro/internal/pixelbox"
)

// TestModelledCostUnchanged pins the simulator's verdict on a fixed corpus to
// the values captured before the host computation moved from per-pixel ray
// casts to row runs: the host got faster, the modelled device did not move.
// Every variant's launch must reproduce DeviceSeconds, Cycles and each
// counter exactly — the charges depend only on the pairs and the
// configuration, never on how the host obtained the integers.
func TestModelledCostUnchanged(t *testing.T) {
	spec := pathology.Representative()
	spec.Tiles = 2
	base := experiments.FilteredPairs(pathology.Generate(spec))
	if len(base) != 96 {
		t.Fatalf("corpus has %d pairs, the golden values were captured on 96", len(base))
	}
	golden := []struct {
		sf            int32
		variant       pixelbox.Variant
		deviceSeconds float64
		cycles        float64
		counters      gpu.Counters
	}{
		{1, pixelbox.PixelBox, 0.0002060077720207254, 308812, gpu.Counters{ALUCycles: 2.118496e+06, SharedCycles: 177288, ConflictCycles: 0, GlobalCycles: 32500, SyncCycles: 2880, GlobalBytes: 66144, Barriers: 96, WarpInstrs: 529624}},
		{1, pixelbox.PixelBoxNoSep, 0.00027762176165803106, 419384, gpu.Counters{ALUCycles: 2.79864e+06, SharedCycles: 234300, ConflictCycles: 0, GlobalCycles: 32500, SyncCycles: 2880, GlobalBytes: 66144, Barriers: 96, WarpInstrs: 699660}},
		{1, pixelbox.PixelOnly, 0.00027731865284974093, 418916, gpu.Counters{ALUCycles: 2.796336e+06, SharedCycles: 231996, ConflictCycles: 0, GlobalCycles: 32500, SyncCycles: 0, GlobalBytes: 66144, Barriers: 0, WarpInstrs: 699084}},
		{1, pixelbox.NoOpt, 0.00027424050086355785, 414163.3333333333, gpu.Counters{ALUCycles: 2.809936e+06, SharedCycles: 2304, ConflictCycles: 0, GlobalCycles: 304747.3333333334, SyncCycles: 2880, GlobalBytes: 66144, Barriers: 96, WarpInstrs: 702484}},
		{1, pixelbox.NBC, 0.0002679711787564767, 404483.5, gpu.Counters{ALUCycles: 2.809936e+06, SharedCycles: 2304, ConflictCycles: 0, GlobalCycles: 228560.5, SyncCycles: 2880, GlobalBytes: 66144, Barriers: 96, WarpInstrs: 702484}},
		{1, pixelbox.NBCUR, 0.00020770174870466323, 311427.5, gpu.Counters{ALUCycles: 2.115664e+06, SharedCycles: 2304, ConflictCycles: 0, GlobalCycles: 228560.5, SyncCycles: 2880, GlobalBytes: 66144, Barriers: 96, WarpInstrs: 528916}},
		{3, pixelbox.PixelBox, 0.0012178108808290156, 1.871036e+06, gpu.Counters{ALUCycles: 1.1803888e+07, SharedCycles: 1.01996e+06, ConflictCycles: 0, GlobalCycles: 32500, SyncCycles: 85440, GlobalBytes: 66144, Barriers: 2848, WarpInstrs: 2950972}},
		{3, pixelbox.PixelBoxNoSep, 0.002040621761658031, 3.141456e+06, gpu.Counters{ALUCycles: 1.9594336e+07, SharedCycles: 1.68418e+06, ConflictCycles: 0, GlobalCycles: 32500, SyncCycles: 120000, GlobalBytes: 66144, Barriers: 4000, WarpInstrs: 4898584}},
		{3, pixelbox.PixelOnly, 0.0022680077720207254, 3.49254e+06, gpu.Counters{ALUCycles: 2.3596336e+07, SharedCycles: 1.954292e+06, ConflictCycles: 0, GlobalCycles: 32500, SyncCycles: 0, GlobalBytes: 66144, Barriers: 0, WarpInstrs: 5899084}},
		{3, pixelbox.NoOpt, 0.0016275669257340242, 2.5036993333333335e+06, gpu.Counters{ALUCycles: 1.5641728e+07, SharedCycles: 58376, ConflictCycles: 6020, GlobalCycles: 1.4846473333333333e+06, SyncCycles: 85440, GlobalBytes: 66144, Barriers: 2848, WarpInstrs: 3910432}},
		{3, pixelbox.NBC, 0.0015925048575129532, 2.4495635e+06, gpu.Counters{ALUCycles: 1.5641728e+07, SharedCycles: 58376, ConflictCycles: 0, GlobalCycles: 1.1134855e+06, SyncCycles: 85440, GlobalBytes: 66144, Barriers: 2848, WarpInstrs: 3910432}},
		{3, pixelbox.NBCUR, 0.001228981541450777, 1.8882835e+06, gpu.Counters{ALUCycles: 1.1801056e+07, SharedCycles: 58376, ConflictCycles: 0, GlobalCycles: 1.1134855e+06, SyncCycles: 85440, GlobalBytes: 66144, Barriers: 2848, WarpInstrs: 2950264}},
	}
	for _, g := range golden {
		pairs := experiments.ScalePairs(base, g.sf)
		_, launch, _ := pixelbox.RunGPU(gpu.NewDevice(gpu.GTX580()), pairs, pixelbox.Config{Variant: g.variant})
		if launch.DeviceSeconds != g.deviceSeconds || launch.Cycles != g.cycles || launch.Counters != g.counters {
			t.Errorf("SF%d %s: modelled cost moved\n got  %v s, %v cycles, %+v\n want %v s, %v cycles, %+v",
				g.sf, g.variant.Name(), launch.DeviceSeconds, launch.Cycles, launch.Counters,
				g.deviceSeconds, g.cycles, g.counters)
		}
	}
}
