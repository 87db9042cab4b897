package forward

import (
	"testing"

	"github.com/evolvable-net/evolve/internal/routing/bgp"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/underlay"
)

// TestHotPotatoPicksNearestBorder: two parallel links between A and B;
// traffic entering A near border 1 must exit over border 1, traffic near
// border 2 over border 2 — early-exit routing.
func TestHotPotatoPicksNearestBorder(t *testing.T) {
	b := topology.NewBuilder()
	dA := b.AddDomain("A")
	dB := b.AddDomain("B")
	rA := b.AddRouters(dA, 3) // 0: west, 1: middle, 2: east
	rB := b.AddRouters(dB, 2)
	b.IntraLink(rA[0], rA[1], 10)
	b.IntraLink(rA[1], rA[2], 10)
	b.IntraLink(rB[0], rB[1], 10)
	// Two parallel peering links: west–west and east–east.
	b.Peer(rA[0], rB[0], 5)
	b.Peer(rA[2], rB[1], 5)
	hostW := b.AddHost(dA, rA[0], "west", 1)
	hostE := b.AddHost(dA, rA[2], "east", 1)
	dstW := b.AddHost(dB, rB[0], "dst-west", 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	igp := underlay.NewView(net)
	e := NewEngine(net, bgp.NewSystem(net), igp)

	// From the west host, the path must cross the west link (second hop
	// is rB[0] directly).
	pw, err := e.HostToHost(hostW, dstW)
	if err != nil {
		t.Fatal(err)
	}
	if pw.Routers[1] != rB[0] {
		t.Errorf("west path = %v, want exit via west border", pw.Routers)
	}
	// From the east host, the nearest border is the east one even though
	// the destination sits at B's west router.
	pe, err := e.HostToHost(hostE, dstW)
	if err != nil {
		t.Fatal(err)
	}
	if pe.Routers[1] != rB[1] {
		t.Errorf("east path = %v, want exit via east border", pe.Routers)
	}
	// Hot potato: the east host's cost is access(1) + link(5) + B intra
	// (10) + access(1) = 17, cheaper than hauling across A first (26).
	if pe.Cost != 17 {
		t.Errorf("east cost = %d, want 17", pe.Cost)
	}
}

// TestHotPotatoEmptyCandidates covers the degenerate API case.
func TestHotPotatoEmptyCandidates(t *testing.T) {
	b := topology.NewBuilder()
	dA := b.AddDomain("A")
	rA := b.AddRouter(dA, "")
	b.AddHost(dA, rA, "h", 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	igp := underlay.NewView(net)
	if _, _, ok := igp.Exit(rA, nil); ok {
		t.Error("empty candidate list resolved")
	}
}
