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
// reported per-group utilities. Both the CELF heap's tie order (equal
// gains resolve by heap array position) and the first gain pass feed
// every one of them, so a change to either that moves any answer fails
// here even when every property test still holds. The rice rows cover
// every forward-MC utility (IC, LT, delayed, discounted), on the
// optimization sample and on the fresh-world report.
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
	{"ris/P1/instagram", []graph.NodeID{50872, 33410, 35489, 35827, 38761, 39967, 41465, 43183, 45258, 48038, 31661, 48205, 49733, 51255, 26715, 16377, 7160, 24211, 24134, 24017, 23990, 23624, 21727, 23021, 22871, 1687, 13572, 12291, 17174, 13905}, 55434, []uint64{0x4071b63333333333, 0x4075afd4fdf3b646}},
	{"ris/P4/instagram", []graph.NodeID{2075, 50872, 13905, 12291, 35489, 9582, 48038, 4747, 48205, 24017, 38761, 21727, 26715, 16377, 51255, 7160, 43183, 24134, 33410, 4926, 31661, 20635, 45258, 24385, 35827, 18333, 39967, 24479, 49733, 9892}, 86272, []uint64{0x40721af5c28f5c29, 0x4074be72b020c49b}},
	{"ris/P2/instagram", []graph.NodeID{50872, 33410, 35489, 35827, 38761, 31661, 39967, 41465, 43183, 45258, 26715, 48038, 48205, 49733, 51255, 17174, 18333, 16377, 7160, 24211, 24134, 24017, 23990, 23624, 23021, 13572, 1687, 12291, 4747, 13905, 9582, 9614, 19664, 4926, 9892, 20635, 2624, 21727, 22871, 24479, 24385, 32707, 32432, 48894, 40272, 36420, 34554, 34370, 34360, 34072, 34046, 34352, 34118, 32154, 31839, 48257, 39397, 35925, 35468, 35283, 34590, 35056, 35455, 34845, 34711, 34713, 34995, 34853, 34659, 34624, 35484, 35106, 35109, 35177, 35579, 35208, 36242, 35195, 35186, 39618, 37736, 40257, 35586, 35672, 35900, 35795, 36743, 36622, 36752, 36512, 37947, 36936, 39645, 40061, 37456, 37143, 37365, 37429, 37130, 40058, 38779, 38794, 31193, 32197, 47347, 46679, 42038, 40276, 39271, 39495, 48542, 41944, 42784, 41882, 42033, 41173, 44300, 40757, 40362, 41836, 42836, 43405, 43172, 44299, 43322, 41927, 41757, 42863, 41929, 43150, 43878, 47199, 46485, 44288, 43250, 43966, 42529, 44813, 44107, 2816, 47886, 45127, 43706, 43505, 44211, 47016, 45068, 46551, 47296, 48491, 44550, 44497, 44436, 46381, 48365, 47220, 47167, 45165, 46017, 45976, 47131, 46089, 47188, 47316, 31707, 33200, 51396, 50768, 30567}, 56434, []uint64{0x407eb347ae147ae1, 0x40a1cc1f7ced9168}},
	{"ris/P6/instagram", []graph.NodeID{50872, 17174, 18333, 31661, 26715, 45258, 35489, 7160, 13905, 49733, 38761, 23990, 39967, 24017, 41465, 24385, 21727, 23021, 23624, 2624, 51255, 20635, 19664, 9614, 22871, 24479, 4926, 13572, 48038, 9582, 4747, 24211, 33410, 16377, 43183, 35827, 24134, 12291, 1687, 48205, 9892, 7075, 32950, 4120, 8241, 16528, 16537, 33103, 33121, 8284, 4146, 33200, 2075, 33221, 33247, 1041, 16693, 16710, 33444, 8371, 33524, 16791, 16796, 16827, 33769, 4231, 33929, 16995, 17006, 34046, 34072, 34093, 34118, 8529, 17117, 17121, 17139, 1071, 34309, 34323, 34352, 34360, 34370, 8631, 34554, 8658, 8684, 17419, 4365, 8750, 17526, 17576, 17609, 8827, 8843, 8851, 2215, 35455, 35468, 35484, 35505, 17771, 35579, 35586, 17794, 17797, 17817, 35672, 8918, 17844, 17893, 35795, 35900, 35925, 4500, 18003, 18027, 18079, 18109, 36242, 4530, 36275, 18138, 4549, 36420, 18213, 18246, 2282, 18323, 9162, 36743, 36752, 9193, 9223, 36936, 9265, 2316, 1159, 37130, 37143, 2327, 37365, 37429, 37456, 37718, 37736, 37947, 34711, 34659, 35208, 35106, 35109, 34995, 34713, 32707, 39495, 39271, 39397, 40757, 39618, 40058, 39645, 40362, 40257, 40061, 40276, 40272, 41173, 41882, 41836, 41757, 41944, 41927, 41929, 42038, 42033, 42529, 43322, 42836}, 56170, []uint64{0x4093ae0000000000, 0x409792999999999a}},
	{"mc/P4/snap", []graph.NodeID{1900, 3844, 2917, 449, 1971, 1814, 3989, 278, 2932, 1987, 247, 1030, 3266, 2009, 2348, 503, 3748, 924, 2132, 2378, 3273, 304, 2075, 2246, 978, 487, 3800, 2088, 2279, 1850}, 20295, []uint64{0x4023cccccccccccd, 0x4038666666666666, 0x401e28f5c28f5c29, 0x4029c28f5c28f5c3, 0x403051eb851eb852}},
	{"mc/P6/snap", []graph.NodeID{1971, 1987, 2132, 2075, 2148, 2009, 2044, 2088, 247, 2102, 487, 503, 449, 424, 29, 304, 1814, 278, 522, 442, 330, 539, 218, 69, 84, 281, 390, 1030, 1872, 2932, 2348, 2246, 1900, 2378, 978, 1850, 3989, 2452, 1829, 3748, 2909, 864, 2690, 3266, 981, 2696, 2532, 974, 2314, 1758, 3852, 3800, 2195, 3273, 3191, 752, 857, 3844, 2673, 2554, 2432, 2872, 2698, 2242, 2657, 2526, 2279, 1236, 3128, 678, 1941, 3210, 790, 1920, 3724, 3746, 3543, 1726, 3888, 3644, 3035, 3782, 3292, 3795, 3842, 3294, 3697, 3990, 2803, 909}, 11913, []uint64{0x403b8f5c28f5c28f, 0x4051fae147ae147b, 0x4026c28f5c28f5c3, 0x404411eb851eb852, 0x404b68f5c28f5c29}},
	{"mc-lt/P4/rice", []graph.NodeID{133, 40, 909, 678, 322, 37, 437, 215, 738, 19}, 4820, []uint64{0x401fd70a3d70a3d7, 0x403475c28f5c28f6, 0x4034051eb851eb85, 0x4028f5c28f5c28f6}},
	{"mc-delayed/P4/rice", []graph.NodeID{513, 244, 39, 34, 1120, 781, 223, 22, 75, 252}, 5094, []uint64{0x401f333333333333, 0x40309eb851eb851f, 0x40320f5c28f5c28f, 0x40231eb851eb851f}},
	{"mc-discounted/P4/rice", []graph.NodeID{378, 40, 771, 26, 1119, 345, 789, 14, 67, 1145}, 5602, []uint64{0x401734b0b5a3eb26, 0x4021e39f3dc5d471, 0x4021e9de29319ce1, 0x401adfbd92ef3358}},
	{"mc/P1/rice/fresh", []graph.NodeID{378, 821, 165, 238, 713, 439, 415, 556, 437, 778}, 1339, []uint64{0x3ff6147ae147ae14, 0x402c1eb851eb851f, 0x402b99999999999a, 0x4014666666666666}},
	{"mc-delayed/P1/rice/fresh", []graph.NodeID{513, 781, 244, 438, 223, 737, 729, 39, 125, 1185}, 1306, []uint64{0x400a8f5c28f5c28f, 0x402bd70a3d70a3d7, 0x402dc28f5c28f5c3, 0x401c147ae147ae14}},
	{"mc-discounted/P1/rice/fresh", []graph.NodeID{378, 173, 713, 345, 354, 753, 192, 789, 556, 238}, 1258, []uint64{0x3ff21751beec6778, 0x402746b58dd003b3, 0x40229b9fb2471a61, 0x4005154ac393bbd3}},
}
