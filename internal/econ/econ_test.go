package econ

import (
	"testing"

	"github.com/evolvable-net/evolve/internal/topology"
)

// tenISPs: one big (0.3) and nine small providers.
func tenISPs() []float64 {
	shares := []float64{0.3}
	for i := 0; i < 9; i++ {
		shares = append(shares, 0.0778)
	}
	return shares
}

func TestUniversalAccessCompletes(t *testing.T) {
	m, err := NewModel(Params{UniversalAccess: true}, tenISPs())
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	o := m.Outcome()
	if !o.Completed {
		t.Errorf("UA adoption did not complete: %+v", o)
	}
	if o.Stalled {
		t.Errorf("UA flagged stalled: %+v", o)
	}
	if o.TimeToHalf < 0 {
		t.Error("demand never crossed 0.5 under UA")
	}
	if o.FinalDemand < 0.9 {
		t.Errorf("final demand = %.3f", o.FinalDemand)
	}
}

func TestNoUniversalAccessStalls(t *testing.T) {
	// The IP Multicast story: without universal access the first mover's
	// addressable market is its own customers; demand never takes off and
	// the deployment bleeds money until abandoned.
	m, err := NewModel(Params{UniversalAccess: false}, tenISPs())
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	o := m.Outcome()
	if o.Completed {
		t.Errorf("non-UA adoption unexpectedly completed: %+v", o)
	}
	if !o.Stalled {
		t.Errorf("non-UA did not stall: %+v", o)
	}
}

func TestUADominatesNonUA(t *testing.T) {
	// Across a range of costs and growth rates, UA's final demand must be
	// at least that of non-UA — the architectural claim, parameterized.
	for _, cost := range []float64{0.02, 0.08, 0.2} {
		for _, growth := range []float64{0.3, 0.6, 1.0} {
			base := Params{DeployCost: cost, GrowthRate: growth}
			ua := base
			ua.UniversalAccess = true
			m1, _ := NewModel(ua, tenISPs())
			m1.Run()
			m2, _ := NewModel(base, tenISPs())
			m2.Run()
			if m1.Outcome().FinalDemand+1e-9 < m2.Outcome().FinalDemand {
				t.Errorf("cost=%.2f growth=%.2f: UA demand %.3f < non-UA %.3f",
					cost, growth, m1.Outcome().FinalDemand, m2.Outcome().FinalDemand)
			}
		}
	}
}

func TestFirstMoverProfitsUnderUA(t *testing.T) {
	// Low deploy cost so every ISP ends up profitable; the first mover
	// still earns the most (early-mover advantage).
	m, _ := NewModel(Params{UniversalAccess: true, DeployCost: 0.02}, tenISPs())
	m.Run()
	if m.ISPs[0].Profit <= 0 {
		t.Errorf("first mover profit = %.3f", m.ISPs[0].Profit)
	}
	for i, isp := range m.ISPs[1:] {
		if isp.Profit >= m.ISPs[0].Profit {
			t.Errorf("laggard %d (%.3f) out-earned the first mover (%.3f)",
				i+1, isp.Profit, m.ISPs[0].Profit)
		}
	}
}

func TestSharesConserved(t *testing.T) {
	m, _ := NewModel(Params{UniversalAccess: true}, tenISPs())
	m.Run()
	var sum float64
	for _, isp := range m.ISPs {
		sum += isp.Share
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %.6f after defection flows", sum)
	}
}

func TestDeterministic(t *testing.T) {
	m1, _ := NewModel(Params{UniversalAccess: true}, tenISPs())
	m2, _ := NewModel(Params{UniversalAccess: true}, tenISPs())
	h1 := m1.Run()
	h2 := m2.Run()
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("round %d differs: %+v vs %+v", i, h1[i], h2[i])
		}
	}
}

func TestRunRestartsCleanly(t *testing.T) {
	m, _ := NewModel(Params{UniversalAccess: true}, tenISPs())
	first := m.Run()
	last1 := first[len(first)-1]
	second := m.Run()
	last2 := second[len(second)-1]
	if last1.Demand != last2.Demand || last1.DeployedCount != last2.DeployedCount {
		t.Error("second Run differs from first — state leaked")
	}
}

func TestHistoryMonotoneUnderUA(t *testing.T) {
	m, _ := NewModel(Params{UniversalAccess: true}, tenISPs())
	hist := m.Run()
	for i := 1; i < len(hist); i++ {
		if hist[i].Demand+1e-12 < hist[i-1].Demand {
			t.Fatalf("demand fell at round %d: %.6f → %.6f", i, hist[i-1].Demand, hist[i].Demand)
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewModel(Params{}, nil); err == nil {
		t.Error("no ISPs accepted")
	}
	if _, err := NewModel(Params{}, []float64{-1, 2}); err == nil {
		t.Error("negative share accepted")
	}
	if _, err := NewModel(Params{}, []float64{0, 0}); err == nil {
		t.Error("all-zero shares accepted")
	}
	if _, err := NewModel(Params{FirstMover: 5}, []float64{1, 1}); err == nil {
		t.Error("out-of-range first mover accepted")
	}
}

func TestNewModelFromNetwork(t *testing.T) {
	n, err := topology.TransitStub(2, 2, 0, topology.GenConfig{Seed: 1, HostsPerDomain: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModelFromNetwork(Params{UniversalAccess: true}, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.ISPs) != len(n.ASNs()) {
		t.Errorf("ISPs = %d", len(m.ISPs))
	}
	if m.ISPs[0].Name != n.Domain(n.ASNs()[0]).Name {
		t.Error("names not carried over")
	}
	m.Run()
	if !m.Outcome().Completed {
		t.Error("network-derived UA run did not complete")
	}
}

func TestOutcomeEmptyHistory(t *testing.T) {
	m, _ := NewModel(Params{}, tenISPs())
	o := m.Outcome()
	if !o.Stalled || o.TimeToHalf != -1 {
		t.Errorf("empty outcome = %+v", o)
	}
}

func TestSettlementRevenue(t *testing.T) {
	own := map[topology.ASN]float64{1: 0.2, 2: 0.3, 3: 0.5}
	// ISP 1 participates and captures 70% of traffic (its 20% plus 50%
	// attracted); ISP 2 participates and captures 30% (its own).
	ingress := map[topology.ASN]float64{1: 0.7, 2: 0.3}
	rev := SettlementRevenue(Params{Price: 1, SettlementRate: 0.5}, 1.0, own, ingress)
	if len(rev) != 2 {
		t.Fatalf("revenue for %d ISPs", len(rev))
	}
	// ISP1: 0.2 retail + 0.5×0.5 settlement = 0.45.
	if diff := rev[1] - 0.45; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("ISP1 revenue = %v", rev[1])
	}
	// ISP2: pure retail 0.3.
	if diff := rev[2] - 0.30; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("ISP2 revenue = %v", rev[2])
	}
	// The attractor out-earns a same-retail non-attractor: the A4 edge.
	if rev[1] <= rev[2]-0.3+0.2 {
		t.Errorf("attracted traffic paid nothing: %v vs %v", rev[1], rev[2])
	}
	// An ISP capturing less than its own base retails only what it serves.
	rev = SettlementRevenue(Params{Price: 1}, 1.0,
		map[topology.ASN]float64{1: 0.6}, map[topology.ASN]float64{1: 0.4})
	if diff := rev[1] - 0.4; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("capped retail = %v", rev[1])
	}
	// Demand scales linearly.
	rev = SettlementRevenue(Params{Price: 2, SettlementRate: 0.5}, 0.5, own, ingress)
	if diff := rev[1] - 0.45; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("scaled revenue = %v", rev[1])
	}
}

func TestHigherCostSlowsOrStallsAdoption(t *testing.T) {
	cheap, _ := NewModel(Params{UniversalAccess: true, DeployCost: 0.02}, tenISPs())
	cheap.Run()
	pricey, _ := NewModel(Params{UniversalAccess: true, DeployCost: 0.5}, tenISPs())
	pricey.Run()
	co, po := cheap.Outcome(), pricey.Outcome()
	if po.FinalDeployed > co.FinalDeployed {
		t.Errorf("higher cost yielded more deployment: %d > %d", po.FinalDeployed, co.FinalDeployed)
	}
}
