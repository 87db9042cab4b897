package topology

import (
	"math/rand"
	"testing"
)

// TestIntraRingEdgeCounts pins the edge count of generated ring domains:
// exactly one edge per ring segment, so a 2-router domain gets a single
// link instead of the parallel pair the old loop double-added.
func TestIntraRingEdgeCounts(t *testing.T) {
	for n := 1; n <= 6; n++ {
		b := NewBuilder()
		d := b.AddDomain("D")
		cfg := GenConfig{RoutersPerDomain: n, Intra: IntraRing}.Defaults()
		populateDomain(b, d, cfg, rand.New(rand.NewSource(1)))
		net, err := b.Build()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := n // one edge per ring segment
		switch n {
		case 1:
			want = 0
		case 2:
			want = 1 // chain only: the closing edge would be a parallel duplicate
		}
		if got := edgeCount(net.Intra) / 2; got != want {
			t.Errorf("n=%d routers: %d intra edges, want %d", n, got, want)
		}
	}
}

// waxmanGolden pins Waxman inter-link output captured before the
// connectivity-chain scan was replaced by a set lookup; the replacement
// draws no randomness, so same-seed output must be bit-identical.
var waxmanGolden = []struct {
	n           int
	alpha, beta float64
	seed        int64
	links       [][4]int64 // from, to, rel, latency
}{
	{12, 0.6, 0.4, 3, [][4]int64{
		{10, 0, 0, 45},
		{29, 1, 0, 40},
		{5, 12, 2, 46},
		{3, 25, 0, 25},
		{4, 29, 2, 16},
		{5, 30, 0, 20},
		{28, 6, 0, 10},
		{10, 17, 0, 42},
		{14, 18, 0, 45},
		{12, 22, 0, 12},
		{13, 35, 0, 13},
		{18, 17, 0, 25},
		{18, 22, 0, 24},
		{29, 19, 0, 15},
		{20, 30, 0, 44},
		{21, 34, 2, 24},
		{25, 35, 2, 29},
		{29, 30, 0, 42},
		{30, 34, 2, 26},
		{5, 1, 0, 35},
		{5, 6, 0, 38},
		{10, 6, 0, 42},
		{14, 10, 0, 43},
		{14, 15, 0, 36},
		{21, 25, 2, 43},
		{29, 25, 0, 32},
	}},
	{8, 0.6, 0.4, 7, [][4]int64{
		{13, 0, 0, 44},
		{20, 1, 0, 14},
		{6, 5, 0, 10},
		{19, 3, 0, 21},
		{7, 11, 0, 40},
		{8, 12, 2, 35},
		{6, 22, 0, 28},
		{14, 10, 0, 26},
		{14, 15, 0, 50},
		{19, 15, 0, 35},
		{1, 5, 2, 14},
		{20, 21, 0, 24},
	}},
	{30, 0.5, 0.3, 11, [][4]int64{
		{34, 0, 0, 27},
		{53, 1, 0, 41},
		{81, 2, 0, 22},
		{3, 13, 2, 10},
		{4, 38, 2, 19},
		{5, 39, 0, 24},
		{55, 3, 0, 25},
		{7, 17, 0, 30},
		{8, 21, 0, 11},
		{6, 28, 0, 29},
		{7, 35, 0, 36},
		{8, 42, 0, 31},
		{6, 46, 0, 18},
		{7, 56, 0, 28},
		{8, 57, 0, 46},
		{6, 61, 0, 23},
		{7, 65, 0, 19},
		{8, 72, 0, 38},
		{16, 9, 0, 20},
		{10, 26, 0, 42},
		{11, 30, 0, 24},
		{58, 9, 0, 43},
		{10, 68, 2, 29},
		{15, 14, 0, 29},
		{34, 12, 0, 35},
		{13, 77, 0, 22},
		{14, 78, 0, 11},
		{15, 34, 0, 36},
		{16, 50, 0, 23},
		{17, 54, 2, 26},
		{15, 58, 0, 12},
		{16, 68, 0, 24},
		{17, 75, 0, 27},
		{49, 18, 0, 50},
		{53, 19, 0, 13},
		{57, 20, 0, 49},
		{21, 34, 2, 45},
		{22, 53, 2, 24},
		{57, 23, 0, 45},
		{21, 67, 2, 35},
		{25, 29, 2, 26},
		{26, 39, 2, 32},
		{58, 24, 0, 37},
		{44, 28, 0, 49},
		{60, 29, 0, 21},
		{67, 30, 0, 40},
		{31, 86, 0, 26},
		{38, 48, 2, 48},
		{61, 36, 0, 47},
		{37, 89, 0, 34},
		{72, 41, 0, 22},
		{42, 46, 2, 27},
		{56, 43, 0, 18},
		{44, 72, 2, 41},
		{42, 76, 0, 49},
		{43, 89, 0, 41},
		{54, 47, 0, 16},
		{61, 45, 0, 10},
		{46, 74, 2, 32},
		{47, 81, 0, 14},
		{45, 88, 0, 38},
		{49, 89, 0, 41},
		{53, 69, 0, 50},
		{51, 82, 0, 37},
		{55, 80, 0, 47},
		{56, 81, 0, 42},
		{54, 85, 0, 48},
		{61, 71, 0, 12},
		{62, 72, 0, 27},
		{60, 79, 0, 32},
		{74, 67, 0, 27},
		{81, 80, 0, 41},
		{4, 0, 0, 28},
		{8, 4, 0, 38},
		{8, 9, 0, 12},
		{9, 13, 0, 32},
		{16, 20, 0, 21},
		{21, 20, 0, 12},
		{21, 25, 0, 33},
		{28, 32, 2, 11},
		{33, 32, 0, 50},
		{33, 37, 0, 23},
		{37, 41, 0, 12},
		{42, 41, 0, 43},
		{45, 49, 0, 46},
		{53, 49, 0, 29},
		{54, 53, 0, 31},
		{54, 58, 0, 12},
		{62, 58, 0, 32},
		{62, 63, 0, 45},
		{67, 63, 0, 25},
		{67, 71, 0, 22},
		{72, 71, 0, 45},
		{72, 76, 0, 26},
		{76, 80, 2, 42},
		{83, 84, 0, 16},
		{88, 84, 0, 45},
	}},
}

func TestWaxmanSameSeedGolden(t *testing.T) {
	for _, g := range waxmanGolden {
		net, err := Waxman(g.n, g.alpha, g.beta, GenConfig{Seed: g.seed, RoutersPerDomain: 3, HostsPerDomain: 1})
		if err != nil {
			t.Fatalf("n=%d seed=%d: %v", g.n, g.seed, err)
		}
		if len(net.Inter) != len(g.links) {
			t.Fatalf("n=%d seed=%d: %d inter links, golden %d", g.n, g.seed, len(net.Inter), len(g.links))
		}
		for i, l := range net.Inter {
			got := [4]int64{int64(l.From), int64(l.To), int64(l.Rel), l.Latency}
			if got != g.links[i] {
				t.Errorf("n=%d seed=%d link %d: got %v, golden %v", g.n, g.seed, i, got, g.links[i])
			}
		}
	}
}
