package fairim

import (
	"math"
	"slices"
	"testing"

	"fairtcim/internal/cascade"
	"fairtcim/internal/datasets"
	"fairtcim/internal/graph"
)

// TestSolveGoldenAnswers pins what the solvers compute on three mid-sized
// stand-ins: the seed sets, the Evaluations counts and the bits of the
// reported per-group utilities. CELF's tie order (equal gains go to the
// lower node ID) and the first gain pass feed every one of them, so a
// change to either that moves any answer fails here even when every
// property test still holds. The rice rows cover every forward-MC utility
// (IC, LT, delayed, discounted), on the optimization sample and on the
// fresh-world report.
//
// Since CELF keeps per-group gain rows and skips a stale top whose row
// bound ranks below the next item, the non-P1 rows spend fewer
// evaluations, and only Evaluations moved: every seed and PerGroup bit is
// unchanged. ris/P4/instagram 39,204 → 8,688, ris/P2/instagram 9,358 →
// 9,228, ris/P6/instagram 9,088 → 8,788, mc/P4/snap 20,295 → 4,092,
// mc/P6/snap 11,913 → 4,397, and the rice P4 rows 4,820 → 1,235 (LT),
// 5,094 → 1,273 (delayed) and 5,602 → 1,250 (discounted). P1's value is
// linear, so CELF keeps no gain rows for it, and the P1 rows did not move.
func TestSolveGoldenAnswers(t *testing.T) {
	instagram, err := datasets.Instagram(0.1, 0.06, 1)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := datasets.FacebookSnap(0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	rice, err := datasets.RiceFacebook(0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	risCfg := DefaultConfig(1)
	risCfg.Engine = EngineRIS
	risCfg.ReportOnSample = true
	mcCfg := DefaultConfig(1)
	mcCfg.ReportOnSample = true
	rr := Sampling{RISPerGroup: 4000}
	worlds := Sampling{Samples: 50}
	// variant returns mcCfg with one forward-MC utility switched on; fresh
	// reports on fresh worlds instead of the optimization sample.
	variant := func(fresh bool, set func(*Config)) Config {
		c := mcCfg
		c.ReportOnSample = !fresh
		if set != nil {
			set(&c)
		}
		return c
	}
	lt := func(c *Config) { c.Model = cascade.LT }
	delayed := func(c *Config) { c.Delay = cascade.GeometricDelay{M: 0.5} }
	discounted := func(c *Config) { c.Discount = 0.8 }
	specs := map[string]struct {
		g    *graph.Graph
		spec ProblemSpec
	}{
		"ris/P1/instagram": {instagram, ProblemSpec{Problem: P1, Budget: 30, Sampling: rr, Config: risCfg}},
		"ris/P4/instagram": {instagram, ProblemSpec{Problem: P4, Budget: 30, Sampling: rr, Config: risCfg}},
		"ris/P2/instagram": {instagram, ProblemSpec{Problem: P2, Quota: 0.05, Sampling: rr, Config: risCfg}},
		"ris/P6/instagram": {instagram, ProblemSpec{Problem: P6, Quota: 0.05, Sampling: rr, Config: risCfg}},
		"mc/P4/snap":       {snap, ProblemSpec{Problem: P4, Budget: 30, Sampling: worlds, Config: mcCfg}},
		"mc/P6/snap":       {snap, ProblemSpec{Problem: P6, Quota: 0.05, Sampling: worlds, Config: mcCfg}},

		"mc-lt/P4/rice":               {rice, ProblemSpec{Problem: P4, Budget: 10, Sampling: worlds, Config: variant(false, lt)}},
		"mc-delayed/P4/rice":          {rice, ProblemSpec{Problem: P4, Budget: 10, Sampling: worlds, Config: variant(false, delayed)}},
		"mc-discounted/P4/rice":       {rice, ProblemSpec{Problem: P4, Budget: 10, Sampling: worlds, Config: variant(false, discounted)}},
		"mc/P1/rice/fresh":            {rice, ProblemSpec{Problem: P1, Budget: 10, Sampling: worlds, Config: variant(true, nil)}},
		"mc-delayed/P1/rice/fresh":    {rice, ProblemSpec{Problem: P1, Budget: 10, Sampling: worlds, Config: variant(true, delayed)}},
		"mc-discounted/P1/rice/fresh": {rice, ProblemSpec{Problem: P1, Budget: 10, Sampling: worlds, Config: variant(true, discounted)}},
	}
	for _, want := range goldenAnswers {
		t.Run(want.name, func(t *testing.T) {
			c := specs[want.name]
			res, err := Solve(c.g, c.spec)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Seeds, want.seeds) {
				t.Errorf("seeds = %v\nwant %v", res.Seeds, want.seeds)
			}
			if res.Evaluations != want.evals {
				t.Errorf("Evaluations = %d, want %d", res.Evaluations, want.evals)
			}
			bits := make([]uint64, len(res.PerGroup))
			for i, u := range res.PerGroup {
				bits[i] = math.Float64bits(u)
			}
			if !slices.Equal(bits, want.perGroup) {
				t.Errorf("PerGroup bits = %#x, want %#x (PerGroup %v)", bits, want.perGroup, res.PerGroup)
			}
		})
	}
}

// goldenAnswers holds the pinned results, PerGroup as math.Float64bits.
var goldenAnswers = []struct {
	name     string
	seeds    []graph.NodeID
	evals    int
	perGroup []uint64
}{
	{"ris/P1/instagram", []graph.NodeID{50872, 26715, 31661, 33410, 35489, 35827, 38761, 39967, 41465, 43183, 45258, 48038, 48205, 49733, 51255, 1687, 2624, 4747, 4926, 7075, 7160, 9582, 9614, 9892, 12291, 13572, 13905, 16377, 17174, 18333}, 8363, []uint64{0x4071b63333333333, 0x4075afd4fdf3b646}},
	{"ris/P4/instagram", []graph.NodeID{4, 50872, 1687, 2624, 26715, 4747, 31661, 4926, 33410, 7075, 35489, 7160, 35827, 9582, 38761, 9614, 39967, 9892, 41465, 12291, 43183, 13572, 45258, 13905, 48038, 16377, 48205, 17174, 49733, 18333}, 8688, []uint64{0x40721af5c28f5c29, 0x4074be72b020c49b}},
	{"ris/P2/instagram", []graph.NodeID{50872, 26715, 31661, 33410, 35489, 35827, 38761, 39967, 41465, 43183, 45258, 48038, 48205, 49733, 51255, 1687, 2624, 4747, 4926, 7075, 7160, 9582, 9614, 9892, 12291, 13572, 13905, 16377, 17174, 18333, 19664, 20635, 21727, 22871, 23021, 23624, 23990, 24134, 24211, 24385, 24479, 2816, 4146, 5850, 16030, 25311, 25471, 25509, 25555, 25561, 25655, 25681, 25702, 26028, 26033, 26099, 26158, 26352, 26488, 26740, 26825, 27081, 27248, 27519, 27521, 27680, 27752, 27835, 28103, 28135, 28223, 28365, 28394, 28460, 28567, 28817, 28895, 29010, 29035, 29236, 29296, 29422, 29523, 29597, 29606, 30035, 30196, 30286, 30345, 30460, 30567, 30589, 30642, 30655, 30796, 31022, 31076, 31117, 31167, 31193, 31374, 31707, 31839, 32049, 32154, 32179, 32197, 32305, 32338, 32431, 32432, 32707, 32950, 33103, 33121, 33200, 33247, 33444, 33524, 33769, 34046, 34072, 34093, 34118, 34309, 34323, 34352, 34360, 34370, 34554, 34590, 34624, 34659, 34711, 34713, 34845, 34853, 34995, 35056, 35106, 35109, 35177, 35186, 35195, 35208, 35455, 35468, 35484, 35579, 35586, 35672, 35795, 35900, 35925, 36242, 36275, 36420, 36512, 36622, 36743, 36752, 36936, 37130, 37365, 37429, 37456, 37736, 37947, 38599}, 9228, []uint64{0x407eb347ae147ae1, 0x40a1cc1f7ced9168}},
	{"ris/P6/instagram", []graph.NodeID{50872, 1687, 2624, 4747, 4926, 7075, 7160, 9582, 9614, 9892, 12291, 13572, 13905, 16377, 17174, 18333, 26715, 31661, 33410, 35489, 35827, 38761, 19664, 20635, 21727, 22871, 23021, 23624, 23990, 24134, 24211, 24385, 24479, 39967, 41465, 43183, 45258, 48038, 48205, 49733, 51255, 24017, 4, 39, 187, 214, 225, 252, 325, 620, 853, 1041, 1071, 1159, 1283, 1290, 1301, 1493, 1547, 1566, 1570, 1615, 1620, 1649, 1728, 1773, 2039, 2075, 2215, 2282, 2316, 2327, 2351, 2501, 2620, 2670, 2709, 2784, 2816, 2923, 2932, 2946, 3000, 3097, 3099, 3149, 3250, 3345, 3353, 3406, 3408, 3459, 3464, 3482, 3517, 3619, 3636, 3902, 4120, 4146, 4231, 4365, 4500, 4530, 4549, 5549, 5850, 16030, 25311, 25471, 25509, 25555, 25561, 25655, 25681, 25702, 26028, 26033, 26099, 26158, 26352, 26488, 26740, 26825, 27081, 27248, 27519, 27521, 27680, 27752, 27835, 28103, 28135, 28223, 28365, 28394, 28460, 28567, 28817, 28895, 29010, 29035, 29236, 29296, 29422, 29523, 29597, 29606, 30035, 30196, 30286, 30345, 30460, 30567, 30589, 30642, 30655, 30796, 31022, 31076, 31117, 31167, 31193, 31374, 31707, 31839, 32049, 32154, 32179, 32197, 32305, 32338, 32431, 32432, 32707, 32950, 33103, 33121, 33200}, 8788, []uint64{0x4093ae0000000000, 0x409792999999999a}},
	{"mc/P4/snap", []graph.NodeID{1900, 3844, 2917, 449, 1971, 1814, 3989, 278, 2932, 1987, 247, 1030, 3266, 2009, 2348, 503, 3748, 924, 2132, 2378, 3273, 304, 2075, 2246, 978, 487, 3800, 2088, 2279, 1850}, 4092, []uint64{0x4023cccccccccccd, 0x4038666666666666, 0x401e28f5c28f5c29, 0x4029c28f5c28f5c3, 0x403051eb851eb852}},
	{"mc/P6/snap", []graph.NodeID{1971, 1987, 2132, 2075, 2148, 2009, 2044, 2088, 247, 2102, 487, 503, 449, 424, 29, 304, 1814, 278, 522, 442, 330, 539, 218, 69, 84, 281, 390, 1030, 1872, 2932, 2348, 2246, 1900, 2378, 978, 1850, 3989, 2452, 1829, 3748, 2909, 864, 2690, 3266, 981, 2696, 2532, 974, 2314, 1758, 3852, 3800, 2195, 3273, 3191, 752, 857, 3844, 2673, 2554, 2432, 2872, 2698, 2242, 2657, 2526, 2279, 1236, 3128, 678, 1941, 3210, 790, 1920, 3724, 3746, 3543, 1726, 3888, 3644, 3035, 3782, 3292, 3795, 3842, 3294, 3697, 3990, 2803, 546}, 4397, []uint64{0x403b8f5c28f5c28f, 0x4052000000000000, 0x4026cccccccccccd, 0x404411eb851eb852, 0x404b75c28f5c28f6}},
	{"mc-lt/P4/rice", []graph.NodeID{133, 40, 909, 678, 322, 37, 437, 215, 738, 19}, 1235, []uint64{0x401fd70a3d70a3d7, 0x403475c28f5c28f6, 0x4034051eb851eb85, 0x4028f5c28f5c28f6}},
	{"mc-delayed/P4/rice", []graph.NodeID{513, 244, 39, 34, 1120, 781, 223, 22, 75, 252}, 1273, []uint64{0x401f333333333333, 0x40309eb851eb851f, 0x40320f5c28f5c28f, 0x40231eb851eb851f}},
	{"mc-discounted/P4/rice", []graph.NodeID{378, 40, 771, 26, 1119, 345, 789, 14, 67, 1145}, 1250, []uint64{0x401734b0b5a3eb26, 0x4021e39f3dc5d471, 0x4021e9de29319ce1, 0x401adfbd92ef3358}},
	{"mc/P1/rice/fresh", []graph.NodeID{378, 821, 165, 238, 713, 439, 415, 556, 437, 778}, 1339, []uint64{0x3ff6147ae147ae14, 0x402c1eb851eb851f, 0x402b99999999999a, 0x4014666666666666}},
	{"mc-delayed/P1/rice/fresh", []graph.NodeID{513, 781, 244, 438, 223, 737, 729, 39, 125, 1185}, 1306, []uint64{0x400a8f5c28f5c28f, 0x402bd70a3d70a3d7, 0x402dc28f5c28f5c3, 0x401c147ae147ae14}},
	{"mc-discounted/P1/rice/fresh", []graph.NodeID{378, 173, 713, 345, 354, 753, 192, 789, 556, 238}, 1258, []uint64{0x3ff21751beec6778, 0x402746b58dd003b3, 0x40229b9fb2471a61, 0x4005154ac393bbd3}},
}
