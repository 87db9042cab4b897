package forward

import (
	"errors"
	"testing"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/routing/bgp"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/underlay"
)

// world: X ← T → Y (T provides X and Y), hosts in X and Y.
func world(t *testing.T) (*topology.Network, *Engine) {
	t.Helper()
	b := topology.NewBuilder()
	dT := b.AddDomain("T")
	dX := b.AddDomain("X")
	dY := b.AddDomain("Y")
	rT := b.AddRouters(dT, 2)
	rX := b.AddRouters(dX, 2)
	rY := b.AddRouters(dY, 2)
	b.IntraLink(rT[0], rT[1], 2)
	b.IntraLink(rX[0], rX[1], 3)
	b.IntraLink(rY[0], rY[1], 3)
	b.Provide(rT[0], rX[0], 10)
	b.Provide(rT[1], rY[0], 10)
	b.AddHost(dX, rX[1], "hx", 1)
	b.AddHost(dY, rY[1], "hy", 2)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n, NewEngine(n, bgp.NewSystem(n), underlay.NewView(n))
}

func TestHostToHost(t *testing.T) {
	n, e := world(t)
	hx := n.HostsIn(n.DomainByName("X").ASN)[0]
	hy := n.HostsIn(n.DomainByName("Y").ASN)[0]
	p, err := e.HostToHost(hx, hy)
	if err != nil {
		t.Fatal(err)
	}
	// hx access 1 + X: r1→r0 (3) + 10 + T: r0→r1 (2) + 10 + Y: r0→r1 (3) + hy access 2
	if p.Cost != 1+3+10+2+10+3+2 {
		t.Errorf("cost = %d, want 31", p.Cost)
	}
	if p.DstHost == nil || p.DstHost.Name != "hy" {
		t.Errorf("DstHost = %+v", p.DstHost)
	}
	if len(p.ASPath) != 3 {
		t.Errorf("ASPath = %v", p.ASPath)
	}
	// Path continuity.
	g := n.RouterGraph()
	for i := 0; i+1 < len(p.Routers); i++ {
		if !g.HasEdge(int(p.Routers[i]), int(p.Routers[i+1])) {
			t.Errorf("hop %d→%d not a link", p.Routers[i], p.Routers[i+1])
		}
	}
	if p.Routers[len(p.Routers)-1] != hy.Attach {
		t.Error("path does not end at destination attach router")
	}
}

func TestIntraDomainDelivery(t *testing.T) {
	n, e := world(t)
	dX := n.DomainByName("X")
	hx := n.HostsIn(dX.ASN)[0]
	p, err := e.FromRouter(dX.Routers[0], hx.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost != 3+1 {
		t.Errorf("cost = %d", p.Cost)
	}
	if len(p.ASPath) != 1 {
		t.Errorf("ASPath = %v", p.ASPath)
	}
}

func TestRouterLoopbackDelivery(t *testing.T) {
	n, e := world(t)
	dY := n.DomainByName("Y")
	target := n.Router(dY.Routers[1])
	p, err := e.FromRouter(n.DomainByName("X").Routers[0], target.Loopback)
	if err != nil {
		t.Fatal(err)
	}
	if p.DstRouter != target.ID || p.DstHost != nil {
		t.Errorf("dst = %d host %v", p.DstRouter, p.DstHost)
	}
}

func TestUnassignedAddress(t *testing.T) {
	n, e := world(t)
	// An address inside X's prefix but assigned to nothing.
	dX := n.DomainByName("X")
	hole := dX.Prefix.Addr + 200
	_, err := e.FromRouter(n.DomainByName("Y").Routers[0], hole)
	if !errors.Is(err, ErrHostNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestNoRoute(t *testing.T) {
	_, e := world(t)
	_, err := e.FromRouter(0, addr.MustParseV4("250.250.250.250"))
	if !errors.Is(err, ErrNoRoute) {
		t.Errorf("err = %v", err)
	}
}

func TestDomainDistance(t *testing.T) {
	n, e := world(t)
	hy := n.HostsIn(n.DomainByName("Y").ASN)[0]
	d, ok := e.DomainDistance(n.DomainByName("X").ASN, hy.Addr)
	if !ok || d != 2 {
		t.Errorf("X→Y domain distance = %d ok %v, want 2", d, ok)
	}
	d, ok = e.DomainDistance(n.DomainByName("Y").ASN, hy.Addr)
	if !ok || d != 0 {
		t.Errorf("local domain distance = %d ok %v", d, ok)
	}
	if _, ok := e.DomainDistance(n.DomainByName("X").ASN, addr.MustParseV4("250.0.0.1")); ok {
		t.Error("unknown destination should have no distance")
	}
}

func TestDomainPath(t *testing.T) {
	n, e := world(t)
	hy := n.HostsIn(n.DomainByName("Y").ASN)[0]
	path, ok := e.DomainPath(n.DomainByName("X").ASN, hy.Addr)
	if !ok || len(path) != 3 {
		t.Errorf("path = %v ok %v", path, ok)
	}
	if path[0] != n.DomainByName("X").ASN || path[2] != n.DomainByName("Y").ASN {
		t.Errorf("path endpoints wrong: %v", path)
	}
}

func TestBaselineMatchesGroundTruthOnTree(t *testing.T) {
	// On a provider tree with no policy shortcuts, the policy path equals
	// the router-graph shortest path.
	n, e := world(t)
	igp := underlay.NewView(n)
	hx := n.HostsIn(n.DomainByName("X").ASN)[0]
	hy := n.HostsIn(n.DomainByName("Y").ASN)[0]
	p, err := e.HostToHost(hx, hy)
	if err != nil {
		t.Fatal(err)
	}
	want := igp.GroundTruthDist(hx.Attach, hy.Attach) + hx.AccessLatency + hy.AccessLatency
	if p.Cost != want {
		t.Errorf("policy cost %d != ground truth %d", p.Cost, want)
	}
}

// TestSeveredBorder: intra-domain failures between the packet and the
// hot-potato border fail the hop as unreachable and leave the walk where
// it stood.
func TestSeveredBorder(t *testing.T) {
	n, e := world(t)
	rX := n.DomainByName("X").Routers
	hy := n.HostsIn(n.DomainByName("Y").ASN)[0]
	if !n.FailIntraLink(rX[0], rX[1]) {
		t.Fatal("no such link")
	}
	e.igp.InvalidateDomain(n.DomainByName("X").ASN)
	w := e.Begin(rX[1])
	defer e.End(w)
	if _, err := e.Hop(w, hy.Addr); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("hop toward a severed border: err = %v, want ErrUnreachable", err)
	}
	if w.At() != rX[1] || len(w.Routers) != 1 || len(w.ASPath) != 1 || w.Cost != 0 {
		t.Errorf("failed hop moved the walk: %+v", w)
	}
	if _, err := e.FromRouter(rX[1], hy.Addr); !errors.Is(err, ErrUnreachable) {
		t.Errorf("FromRouter = %v, want ErrUnreachable", err)
	}
}
