package forward

import (
	"errors"
	"slices"
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

// walked is what a finished walk shows: where the packet stands, the
// domains it crossed, its cost and the host it was delivered to.
type walked struct {
	at     topology.RouterID
	asPath []topology.ASN
	cost   int64
	host   *topology.Host
}

// walkTo delivers a fresh walk from a router to dst (see Deliver for
// host) and returns what it shows.
func walkTo(e *Engine, from topology.RouterID, dst addr.V4, host *topology.Host) (walked, error) {
	w := e.Begin(from)
	defer e.End(w)
	h, err := e.Deliver(w, dst, host)
	if err != nil {
		return walked{}, err
	}
	return walked{at: w.At(), asPath: slices.Clone(w.ASPath), cost: w.Cost, host: h}, nil
}

func TestHostToHost(t *testing.T) {
	n, e := world(t)
	hx := n.HostsIn(n.DomainByName("X").ASN)[0]
	hy := n.HostsIn(n.DomainByName("Y").ASN)[0]
	cost, err := e.HostToHost(hx, hy)
	if err != nil {
		t.Fatal(err)
	}
	// hx access 1 + X: r1→r0 (3) + 10 + T: r0→r1 (2) + 10 + Y: r0→r1 (3) + hy access 2
	if cost != 1+3+10+2+10+3+2 {
		t.Errorf("cost = %d, want 31", cost)
	}
	p, err := walkTo(e, hx.Attach, hy.Addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.host != hy || p.at != hy.Attach {
		t.Errorf("delivered to %+v at r%d, want hy at r%d", p.host, p.at, hy.Attach)
	}
	want := []topology.ASN{n.DomainByName("X").ASN, n.DomainByName("T").ASN, n.DomainByName("Y").ASN}
	if !slices.Equal(p.asPath, want) {
		t.Errorf("ASPath = %v, want %v", p.asPath, want)
	}
	if cost != p.cost+hx.AccessLatency {
		t.Errorf("HostToHost = %d, walk %d + access %d", cost, p.cost, hx.AccessLatency)
	}
}

func TestIntraDomainDelivery(t *testing.T) {
	n, e := world(t)
	dX := n.DomainByName("X")
	hx := n.HostsIn(dX.ASN)[0]
	cost, err := e.FromRouter(dX.Routers[0], hx.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 3+1 {
		t.Errorf("cost = %d", cost)
	}
	if p, _ := walkTo(e, dX.Routers[0], hx.Addr, nil); len(p.asPath) != 1 {
		t.Errorf("ASPath = %v", p.asPath)
	}
}

func TestRouterLoopbackDelivery(t *testing.T) {
	n, e := world(t)
	dY := n.DomainByName("Y")
	target := n.Router(dY.Routers[1])
	p, err := walkTo(e, n.DomainByName("X").Routers[0], target.Loopback, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.at != target.ID || p.host != nil {
		t.Errorf("dst = %d host %v", p.at, p.host)
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
	cost, err := e.HostToHost(hx, hy)
	if err != nil {
		t.Fatal(err)
	}
	want := igp.GroundTruthDist(hx.Attach, hy.Attach) + hx.AccessLatency + hy.AccessLatency
	if cost != want {
		t.Errorf("policy cost %d != ground truth %d", cost, want)
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
	if w.At() != rX[1] || len(w.ASPath) != 1 || w.Cost != 0 {
		t.Errorf("failed hop moved the walk: %+v", w)
	}
	if _, err := e.FromRouter(rX[1], hy.Addr); !errors.Is(err, ErrUnreachable) {
		t.Errorf("FromRouter = %v, want ErrUnreachable", err)
	}
}
