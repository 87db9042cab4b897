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

	// The first hop lands on the far end of the border link it crossed:
	// from the west host, the west link (rB[0]); from the east host, the
	// east one (rB[1]) even though the destination sits at B's west router.
	for _, c := range []struct {
		name string
		from *topology.Host
		want topology.RouterID
	}{{"west", hostW, rB[0]}, {"east", hostE, rB[1]}} {
		w := e.Begin(c.from.Attach)
		if local, err := e.Hop(w, dstW.Addr); err != nil || local {
			t.Fatalf("%s: first hop: local %v, err %v", c.name, local, err)
		}
		if w.At() != c.want {
			t.Errorf("%s: first hop landed at r%d, want exit via r%d", c.name, w.At(), c.want)
		}
		e.End(w)
	}
	// Hot potato: the east host's cost is access(1) + link(5) + B intra
	// (10) + access(1) = 17, cheaper than hauling across A first (26).
	if cost, err := e.HostToHost(hostE, dstW); err != nil || cost != 17 {
		t.Errorf("east cost = %d, %v; want 17", cost, err)
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
