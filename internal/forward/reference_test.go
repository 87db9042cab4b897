package forward

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/graph"
	"github.com/evolvable-net/evolve/internal/routing/bgp"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/underlay"
)

// refWalk is the walk as it was before the walk kept its BGP view and
// route, and while it still recorded routers: every hop asks BGP and the
// IGP afresh — a route lookup, a view of its own for the border links,
// Exit for the link and IntraDist for the way to it — and appends its
// intra leg, built with IntraPath, to a router list of its own, whose
// last router is where the packet stands. It is the reference
// TestWalkMatchesReference holds the engine's walk to.
type refWalk struct {
	routers []topology.RouterID
	asPath  []topology.ASN
	cost    int64
}

func (w *refWalk) at() topology.RouterID { return w.routers[len(w.routers)-1] }
func (w *refWalk) domain() topology.ASN  { return w.asPath[len(w.asPath)-1] }

func (e *Engine) refBegin(from topology.RouterID) *refWalk {
	return &refWalk{routers: []topology.RouterID{from}, asPath: []topology.ASN{e.net.DomainOf(from)}}
}

func refAppendPath(path, p []topology.RouterID) []topology.RouterID {
	if len(p) > 0 && len(path) > 0 && path[len(path)-1] == p[0] {
		p = p[1:]
	}
	return append(path, p...)
}

func (e *Engine) refHop(w *refWalk, dst addr.V4) (local bool, err error) {
	at, asn := w.at(), w.domain()
	route, ok := e.bgp.Lookup(asn, dst)
	if !ok {
		return false, ErrNoRoute
	}
	next := route.NextHop()
	if next == -1 {
		return true, nil
	}
	var links bgp.Toward
	e.bgp.Toward(dst, &links)
	link, _, ok := e.igp.Exit(at, links.LinksBetween(asn, next))
	if !ok {
		return false, fmt.Errorf("forward: BGP chose non-adjacent AS%d from AS%d", next, asn)
	}
	d := e.igp.IntraDist(at, link.From)
	if d >= graph.Inf {
		return false, ErrUnreachable
	}
	if slices.Contains(w.asPath, next) {
		return false, ErrLoop
	}
	w.cost += d + link.Latency
	w.routers = append(refAppendPath(w.routers, e.igp.IntraPath(at, link.From)), link.To)
	w.asPath = append(w.asPath, next)
	return false, nil
}

// referenceWalk is the old FromRouter: refHop until local, then the old
// finish, which looks dst up by address (loopback first, then host).
func (e *Engine) referenceWalk(from topology.RouterID, dst addr.V4) (walked, error) {
	w := e.refBegin(from)
	for {
		local, err := e.refHop(w, dst)
		if err != nil {
			return walked{}, err
		}
		if local {
			break
		}
	}
	asn := w.domain()
	var to topology.RouterID
	var host *topology.Host
	var access int64
	if r := e.net.RouterByLoopback(dst); r != nil && r.Domain == asn {
		to = r.ID
	} else if h := e.net.FindHost(dst); h != nil && h.Domain == asn {
		to, host, access = h.Attach, h, h.AccessLatency
	} else {
		return walked{}, ErrHostNotFound
	}
	d := e.igp.IntraDist(w.at(), to)
	if d >= graph.Inf {
		return walked{}, ErrUnreachable
	}
	w.routers = refAppendPath(w.routers, e.igp.IntraPath(w.at(), to))
	return walked{at: w.at(), asPath: w.asPath, cost: w.cost + d + access, host: host}, nil
}

// sameErr: both nil, or the same sentinel, or (for the one formatted
// error) the same text.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	for _, s := range []error{ErrNoRoute, ErrHostNotFound, ErrLoop, ErrUnreachable} {
		if errors.Is(a, s) || errors.Is(b, s) {
			return errors.Is(a, s) && errors.Is(b, s)
		}
	}
	return a.Error() == b.Error()
}

// walkWorld is one seeded TransitStub internet and the engine over it.
type walkWorld struct {
	t    *testing.T
	net  *topology.Network
	e    *Engine
	seen map[error]int // sentinel → times a compared walk ended in it
}

func newWalkWorld(t *testing.T, seed int64, routersPerDomain int) *walkWorld {
	t.Helper()
	n, err := topology.TransitStub(3, 4, 0.5, topology.GenConfig{
		Seed: seed, RoutersPerDomain: routersPerDomain, HostsPerDomain: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(n, bgp.NewSystem(n), underlay.NewView(n))
	return &walkWorld{t: t, net: n, e: e, seen: map[error]int{}}
}

// intraLatency is the weight of the intra link a–b.
func intraLatency(t *testing.T, n *topology.Network, a, b topology.RouterID) int64 {
	t.Helper()
	for _, ed := range n.Intra.Neighbors(int(a)) {
		if ed.To == int(b) {
			return ed.Weight
		}
	}
	t.Fatalf("no intra link r%d–r%d", a, b)
	return 0
}

// compare holds the walk to the reference for one (router, destination)
// pair, with and without the destination's host handed in (host is nil
// for a loopback), and FromRouter to the walk.
func (w *walkWorld) compare(label string, from topology.RouterID, dst addr.V4, host *topology.Host) {
	w.t.Helper()
	e := w.e
	want, wantErr := e.referenceWalk(from, dst)
	for _, s := range []error{ErrNoRoute, ErrHostNotFound, ErrLoop, ErrUnreachable} {
		if errors.Is(wantErr, s) {
			w.seen[s]++
		}
	}
	for _, h := range []*topology.Host{nil, host} {
		got, err := walkTo(e, from, dst, h)
		if !sameErr(err, wantErr) {
			w.t.Fatalf("%s: r%d→%s: err = %v, reference %v", label, from, dst, err, wantErr)
		}
		if err == nil && (got.at != want.at || !slices.Equal(got.asPath, want.asPath) || got.cost != want.cost || got.host != want.host) {
			w.t.Fatalf("%s: r%d→%s:\n got %+v\nwant %+v", label, from, dst, got, want)
		}
	}
	cost, err := e.FromRouter(from, dst)
	if !sameErr(err, wantErr) || err == nil && cost != want.cost {
		w.t.Fatalf("%s: r%d→%s: FromRouter = %d, %v; reference %+v, %v", label, from, dst, cost, err, want, wantErr)
	}
}

// sweep compares a deterministic sample of (router, host) and (router,
// loopback) pairs, and HostToHost against the reference for host pairs.
func (w *walkWorld) sweep(label string) {
	w.t.Helper()
	rs, hs := w.net.Routers, w.net.Hosts
	for i := 0; i < len(rs); i += 2 {
		for j := i % 3; j < len(hs); j += 3 {
			w.compare(label, rs[i].ID, hs[j].Addr, hs[j])
		}
		for j := i % 5; j < len(rs); j += 5 {
			w.compare(label, rs[i].ID, rs[j].Loopback, nil)
		}
	}
	for i := 0; i < len(hs); i += 3 {
		src, dst := hs[i], hs[(i*7+5)%len(hs)]
		want, wantErr := w.e.referenceWalk(src.Attach, dst.Addr)
		c, err := w.e.HostToHost(src, dst)
		if !sameErr(err, wantErr) || err == nil && c != want.cost+src.AccessLatency {
			w.t.Fatalf("%s: %s→%s: HostToHost = %d, %v; reference %d, %v", label, src.Name, dst.Name, c, err, want.cost+src.AccessLatency, wantErr)
		}
	}
}

func (w *walkWorld) expect(label string, sentinel error) {
	w.t.Helper()
	if w.seen[sentinel] == 0 {
		w.t.Errorf("%s: no compared walk ended in %v", label, sentinel)
	}
	clear(w.seen)
}

// TestWalkMatchesReference holds the engine's walk — one BGP view per
// destination, one IGP probe per hop, no router recorded — to the
// per-hop reference on where it ends, AS path, cost, delivered host and
// error, through every state a walk can meet.
func TestWalkMatchesReference(t *testing.T) {
	for _, rpd := range []int{2, 3} {
		for _, seed := range []int64{1, 2, 3} {
			w := newWalkWorld(t, seed, rpd)
			n, e := w.net, w.e
			label := func(s string) string { return fmt.Sprintf("rpd=%d seed=%d %s", rpd, seed, s) }
			w.sweep(label("quiescent"))
			clear(w.seen)

			// An intra link down and up again, in a transit domain.
			tr := n.Domain(n.ASNs()[0]).Routers
			lat := intraLatency(t, n, tr[0], tr[1])
			n.FailIntraLink(tr[0], tr[1])
			e.igp.InvalidateDomain(n.DomainOf(tr[0]))
			w.sweep(label("intra failed"))
			if rpd == 2 {
				// Two routers, one link: the domain is partitioned.
				w.expect(label("partitioned transit"), ErrUnreachable)
			}
			n.RestoreIntraLink(tr[0], tr[1], lat)
			e.igp.InvalidateDomain(n.DomainOf(tr[0]))
			w.sweep(label("intra restored"))

			// A stub partitioned: its attach routers cut off from its border.
			stub := n.Domain(n.ASNs()[len(n.ASNs())-1])
			var cut [][3]int64
			for _, ed := range slices.Clone(n.Intra.Neighbors(int(stub.Routers[0]))) {
				n.FailIntraLink(stub.Routers[0], topology.RouterID(ed.To))
				cut = append(cut, [3]int64{int64(stub.Routers[0]), int64(ed.To), ed.Weight})
			}
			e.igp.InvalidateDomain(stub.ASN)
			w.sweep(label("stub partitioned"))
			w.expect(label("stub partitioned"), ErrUnreachable)
			for _, c := range cut {
				n.RestoreIntraLink(topology.RouterID(c[0]), topology.RouterID(c[1]), c[2])
			}
			e.igp.InvalidateDomain(stub.ASN)

			// An inter link down and up again.
			il := n.Inter[len(n.Inter)/2]
			failed, ok := n.FailInterLink(il.From, il.To)
			if !ok {
				t.Fatal("no inter link")
			}
			e.bgp.Refresh()
			e.igp.InvalidateInter()
			w.sweep(label("inter failed"))
			n.RestoreInterLink(failed)
			e.bgp.Refresh()
			e.igp.InvalidateInter()
			w.sweep(label("inter restored"))

			// A withdrawn aggregate: no route.
			clear(w.seen)
			e.bgp.Withdraw(stub.ASN, stub.Prefix)
			w.sweep(label("withdrawn"))
			w.expect(label("withdrawn"), ErrNoRoute)
			e.bgp.Originate(stub.ASN, stub.Prefix)

			// A two-prefix chain, as option 2's peering advert makes one
			// (anycast.AdvertiseToNeighbors is this OriginateTo): a stub
			// host's /32 advertised NO_EXPORT by the stub itself, which
			// delivers, and a router's by a foreign transit, which does not.
			provider := n.DomainOf(n.Inter[len(n.Inter)-1].From)
			h := n.HostsIn(stub.ASN)[0]
			e.bgp.OriginateTo(stub.ASN, addr.HostPrefix(h.Addr), provider)
			foreign := n.ASNs()[1]
			var nbrs []topology.ASN
			for _, nb := range n.AllNeighbors()[foreign] {
				nbrs = append(nbrs, nb.ASN)
			}
			e.bgp.OriginateTo(foreign, addr.HostPrefix(stub.Prefix.Addr+1), nbrs...)
			w.sweep(label("two-prefix chain"))
			w.expect(label("two-prefix chain"), ErrHostNotFound)

			// A GIA address — outside every aggregate, its /32 known only
			// next to the advertiser — falls back to the home prefix mid-walk:
			// the walk is handed two destinations in turn, as
			// anycast.ResolveFromRouterVia does.
			home := n.Domain(n.ASNs()[2])
			gia, err := addr.GIAAddress(home.Prefix, 1)
			if err != nil {
				t.Fatal(err)
			}
			e.bgp.OriginateTo(foreign, addr.HostPrefix(gia), nbrs...)
			fellBack := false
			for _, r := range n.Routers {
				ref, got := e.refBegin(r.ID), e.Begin(r.ID)
				viaHome := false
				for step := 0; ; step++ {
					rl, rerr := e.refHop(ref, gia)
					gl, gerr := e.Hop(got, gia)
					if errors.Is(rerr, ErrNoRoute) && errors.Is(gerr, ErrNoRoute) {
						viaHome = true
						rl, rerr = e.refHop(ref, home.Prefix.Addr+1)
						gl, gerr = e.Hop(got, home.Prefix.Addr+1)
					} else if rerr == nil && viaHome {
						// Moved on the anycast route after moving on the home one.
						fellBack = true
					}
					if rl != gl || !sameErr(rerr, gerr) || got.Cost != ref.cost || got.At() != ref.at() ||
						!slices.Equal(got.ASPath, ref.asPath) {
						t.Fatalf("%s: from r%d step %d: walk (%v %v r%d %v %d) != reference (%v %v %+v)",
							label("gia"), r.ID, step, gl, gerr, got.At(), got.ASPath, got.Cost, rl, rerr, ref)
					}
					if rl || rerr != nil {
						break
					}
				}
				e.End(got)
			}
			if !fellBack {
				t.Errorf("%s: no walk moved on both the home prefix and the anycast route", label("gia"))
			}
		}
	}
}
