package distvec

import (
	"testing"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/netsim"
)

func loop(id int) addr.V4 { return addr.V4FromOctets(10, 0, 0, byte(id+1)) }

// buildLine wires n routers in a line 0—1—…—n-1 with metric-1 links.
func buildLine(t *testing.T, n int) (*Domain, *netsim.Engine) {
	t.Helper()
	adj := map[int]map[int]int{}
	loops := map[int]addr.V4{}
	for i := 0; i < n; i++ {
		adj[i] = map[int]int{}
		loops[i] = loop(i)
	}
	for i := 0; i+1 < n; i++ {
		adj[i][i+1] = 1
		adj[i+1][i] = 1
	}
	eng := netsim.NewEngine()
	fab := netsim.NewFabric(eng)
	d := NewDomain(fab, loops, adj)
	d.Start()
	eng.Run(0)
	return d, eng
}

func TestConvergenceOnLine(t *testing.T) {
	d, _ := buildLine(t, 5)
	r0 := d.Routers[0]
	for i := 0; i < 5; i++ {
		if got := r0.DistanceTo(loop(i)); got != i {
			t.Errorf("dist to router %d = %d, want %d", i, got, i)
		}
	}
	e, ok := r0.Lookup(loop(4))
	if !ok || e.NextHop != 1 {
		t.Errorf("route to 4 = %+v ok %v", e, ok)
	}
	// Self route.
	if e, ok := r0.Lookup(loop(0)); !ok || e.Metric != 0 || e.NextHop != 0 {
		t.Errorf("self route = %+v ok %v", e, ok)
	}
}

func TestAnycastClosestWins(t *testing.T) {
	d, eng := buildLine(t, 7)
	a, _ := addr.Option1Address(0)
	// Members at 1 and 5; router 0 must reach 1; router 4 must reach 5;
	// router 3 ties (dist 2 both ways) and either is acceptable — but the
	// metric must be 2.
	d.Routers[1].ServeAnycast(a)
	d.Routers[5].ServeAnycast(a)
	eng.Run(0)
	if got := d.Routers[0].DistanceTo(a); got != 1 {
		t.Errorf("router 0 anycast dist = %d, want 1", got)
	}
	if got := d.Routers[4].DistanceTo(a); got != 1 {
		t.Errorf("router 4 anycast dist = %d, want 1", got)
	}
	if got := d.Routers[3].DistanceTo(a); got != 2 {
		t.Errorf("router 3 anycast dist = %d, want 2", got)
	}
	// Members resolve to themselves.
	if e, _ := d.Routers[5].Lookup(a); e.Metric != 0 || e.NextHop != 5 {
		t.Errorf("member route = %+v", e)
	}
}

func TestAnycastSeamlessSpread(t *testing.T) {
	// The Figure-1 dynamic at IGP scale: as closer members appear, a
	// client's route moves without any client-side change.
	d, eng := buildLine(t, 6)
	a, _ := addr.Option1Address(1)
	d.Routers[5].ServeAnycast(a)
	eng.Run(0)
	if got := d.Routers[0].DistanceTo(a); got != 5 {
		t.Fatalf("stage 1 dist = %d", got)
	}
	d.Routers[3].ServeAnycast(a)
	eng.Run(0)
	if got := d.Routers[0].DistanceTo(a); got != 3 {
		t.Fatalf("stage 2 dist = %d", got)
	}
	d.Routers[1].ServeAnycast(a)
	eng.Run(0)
	if got := d.Routers[0].DistanceTo(a); got != 1 {
		t.Fatalf("stage 3 dist = %d", got)
	}
}

func TestLinkFailurePoisonsRoutes(t *testing.T) {
	d, eng := buildLine(t, 4)
	if got := d.Routers[0].DistanceTo(loop(3)); got != 3 {
		t.Fatalf("precondition dist = %d", got)
	}
	// Cut 1–2; the line partitions into {0,1} and {2,3}.
	d.Routers[1].SetLinkDown(2)
	d.Routers[2].SetLinkDown(1)
	eng.Run(0)
	if _, ok := d.Routers[0].Lookup(loop(3)); ok {
		t.Error("route across cut still present")
	}
	if _, ok := d.Routers[0].Lookup(loop(1)); !ok {
		t.Error("route within partition lost")
	}
}

func TestTriangleReconvergence(t *testing.T) {
	// Triangle 0–1–2–0: cutting 0–1 leaves the detour through 2.
	adj := map[int]map[int]int{
		0: {1: 1, 2: 1},
		1: {0: 1, 2: 1},
		2: {0: 1, 1: 1},
	}
	loops := map[int]addr.V4{0: loop(0), 1: loop(1), 2: loop(2)}
	eng := netsim.NewEngine()
	fab := netsim.NewFabric(eng)
	d := NewDomain(fab, loops, adj)
	d.Start()
	eng.Run(0)
	if got := d.Routers[0].DistanceTo(loop(1)); got != 1 {
		t.Fatalf("precondition: %d", got)
	}
	fab.FailLink(0, 1)
	d.Routers[0].SetLinkDown(1)
	d.Routers[1].SetLinkDown(0)
	eng.Run(0)
	e, ok := d.Routers[0].Lookup(loop(1))
	if !ok || e.Metric != 2 || e.NextHop != 2 {
		t.Errorf("detour route = %+v ok %v", e, ok)
	}
}

func TestStaleMessageFromDownNeighborIgnored(t *testing.T) {
	d, eng := buildLine(t, 2)
	// Simulate: 0 drops its adjacency to 1, then a stale vector from 1
	// arrives; it must not resurrect routes.
	d.Routers[0].SetLinkDown(1)
	eng.Run(0)
	d.Routers[0].Receive(1, vector{routes: map[addr.V4]int{loop(1): 0}})
	if _, ok := d.Routers[0].Lookup(loop(1)); ok {
		t.Error("stale vector accepted from down neighbor")
	}
}

func TestMetricsRespectLinkWeights(t *testing.T) {
	// 0 —3— 1, 0 —1— 2 —1— 1: the two-hop path (metric 2) beats the
	// direct metric-3 link.
	adj := map[int]map[int]int{
		0: {1: 3, 2: 1},
		1: {0: 3, 2: 1},
		2: {0: 1, 1: 1},
	}
	loops := map[int]addr.V4{0: loop(0), 1: loop(1), 2: loop(2)}
	eng := netsim.NewEngine()
	fab := netsim.NewFabric(eng)
	d := NewDomain(fab, loops, adj)
	d.Start()
	eng.Run(0)
	e, ok := d.Routers[0].Lookup(loop(1))
	if !ok || e.Metric != 2 || e.NextHop != 2 {
		t.Errorf("weighted route = %+v ok %v", e, ok)
	}
}

func BenchmarkConvergence(b *testing.B) {
	// The line must stay within RIP's 15-hop metric horizon.
	const n = 14
	adj := map[int]map[int]int{}
	loops := map[int]addr.V4{}
	for i := 0; i < n; i++ {
		adj[i] = map[int]int{}
		loops[i] = loop(i)
	}
	for i := 0; i+1 < n; i++ {
		adj[i][i+1] = 1
		adj[i+1][i] = 1
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := netsim.NewEngine()
		fab := netsim.NewFabric(eng)
		d := NewDomain(fab, loops, adj)
		d.Start()
		eng.Run(0)
		if d.Routers[0].DistanceTo(loop(n-1)) != n-1 {
			b.Fatal("did not converge")
		}
	}
}
