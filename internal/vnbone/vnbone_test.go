package vnbone

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/graph"
	"github.com/evolvable-net/evolve/internal/routing/bgp"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/underlay"
)

// env bundles the layers under a topology.
type env struct {
	net *topology.Network
	igp *underlay.View
	svc *anycast.Service
}

func newEnv(t *testing.T, n *topology.Network) *env {
	t.Helper()
	igp := underlay.NewView(n)
	return &env{net: n, igp: igp, svc: anycast.NewService(n, bgp.NewSystem(n), igp)}
}

// line builds domain "A" with routers in a line, cost 1 per hop.
func lineDomain(t *testing.T, nRouters int) (*env, []topology.RouterID) {
	t.Helper()
	b := topology.NewBuilder()
	dA := b.AddDomain("A")
	dB := b.AddDomain("B") // second domain so BGP/anycast have an internet
	rs := b.AddRouters(dA, nRouters)
	rb := b.AddRouter(dB, "")
	for i := 0; i+1 < nRouters; i++ {
		b.IntraLink(rs[i], rs[i+1], 1)
	}
	b.Peer(rs[0], rb, 10)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return newEnv(t, n), rs
}

func TestIntraKClosest(t *testing.T) {
	e, rs := lineDomain(t, 5)
	dep, _ := e.svc.DeployOption1(0)
	for _, r := range rs {
		e.svc.AddMember(dep, r)
	}
	bone, err := Build(e.svc, e.igp, dep, Config{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bone.Connected() {
		t.Fatal("bone disconnected despite repair")
	}
	// With k=1 on a line, each member links to an adjacent member;
	// repair may add more. All links must be intra.
	for _, l := range bone.Links() {
		if l.Kind != KindIntra {
			t.Errorf("unexpected %s link", l.Kind)
		}
		if l.Cost != bone.Dist(l.A, l.B) && l.Cost < bone.Dist(l.A, l.B) {
			t.Errorf("link cost inconsistent")
		}
	}
	// Bone distance along the line cannot beat the underlay.
	if d := bone.Dist(rs[0], rs[4]); d < 4 {
		t.Errorf("bone dist = %d beats underlay 4", d)
	}
}

func TestIntraPartitionRepair(t *testing.T) {
	// Two far-apart clusters inside one domain: k=1 links within
	// clusters; repair must bridge them.
	b := topology.NewBuilder()
	dA := b.AddDomain("A")
	dB := b.AddDomain("B")
	rs := b.AddRouters(dA, 6)
	rb := b.AddRouter(dB, "")
	// Cluster 1: 0-1-2 (cost 1); cluster 2: 3-4-5 (cost 1); bridge 2-3
	// cost 100.
	b.IntraLink(rs[0], rs[1], 1)
	b.IntraLink(rs[1], rs[2], 1)
	b.IntraLink(rs[3], rs[4], 1)
	b.IntraLink(rs[4], rs[5], 1)
	b.IntraLink(rs[2], rs[3], 100)
	b.Peer(rs[0], rb, 10)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(t, n)
	dep, _ := e.svc.DeployOption1(0)
	for _, r := range rs {
		e.svc.AddMember(dep, r)
	}

	// Without repair: partitioned (k=1 keeps clusters separate) — Build
	// with repair+bootstrap disabled reports components.
	bone, err := Build(e.svc, e.igp, dep, Config{K: 1, DisableRepair: true, disableBootstrap: true})
	if err != nil {
		t.Fatal(err)
	}
	if bone.Connected() {
		t.Fatal("expected partition with repair disabled")
	}
	if got := len(bone.Components()); got != 2 {
		t.Errorf("components = %d", got)
	}

	// With repair: connected, via the cheapest cross pair (2,3).
	bone, err = Build(e.svc, e.igp, dep, Config{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bone.Connected() {
		t.Fatal("repair failed")
	}
	found := false
	for _, l := range bone.Links() {
		if (l.A == rs[2] && l.B == rs[3]) || (l.A == rs[3] && l.B == rs[2]) {
			found = true
			if l.Cost != 100 {
				t.Errorf("bridge cost = %d", l.Cost)
			}
		}
	}
	if !found {
		t.Error("repair did not use the cheapest bridge")
	}
}

// multiDomain builds three participant domains in a provider chain plus a
// non-participant transit in the middle:
// A —prov→ B —prov→ C, everyone participates except nothing… simply:
// T provides A, B, C (star). A, B participate via peering-adjacent
// domains? For tunnels we need *adjacent* participants: make A—B peer
// directly, C connected only through non-participant T.
func multiDomain(t *testing.T) (*env, map[string][]topology.RouterID) {
	t.Helper()
	b := topology.NewBuilder()
	dT := b.AddDomain("T")
	dA := b.AddDomain("A")
	dB := b.AddDomain("B")
	dC := b.AddDomain("C")
	rT := b.AddRouters(dT, 2)
	rA := b.AddRouters(dA, 2)
	rB := b.AddRouters(dB, 2)
	rC := b.AddRouters(dC, 2)
	b.IntraLink(rT[0], rT[1], 1)
	b.IntraLink(rA[0], rA[1], 1)
	b.IntraLink(rB[0], rB[1], 1)
	b.IntraLink(rC[0], rC[1], 1)
	b.Provide(rT[0], rA[0], 10)
	b.Provide(rT[0], rB[0], 10)
	b.Provide(rT[1], rC[0], 10)
	b.Peer(rA[1], rB[1], 5)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return newEnv(t, n), map[string][]topology.RouterID{
		"T": rT, "A": rA, "B": rB, "C": rC,
	}
}

func TestInterPeeringTunnels(t *testing.T) {
	e, rs := multiDomain(t)
	dep, _ := e.svc.DeployOption1(0)
	e.svc.AddMember(dep, rs["A"][0])
	e.svc.AddMember(dep, rs["B"][0])
	bone, err := Build(e.svc, e.igp, dep, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !bone.Connected() {
		t.Fatal("adjacent participants not connected")
	}
	var tunnels int
	for _, l := range bone.Links() {
		if l.Kind == KindTunnel {
			tunnels++
			// Tunnel cost = dist(member A0 → border A1) + 5 + dist(border
			// B1 → member B0) = 1 + 5 + 1.
			if l.Cost != 7 {
				t.Errorf("tunnel cost = %d, want 7", l.Cost)
			}
		}
	}
	if tunnels != 1 {
		t.Errorf("tunnels = %d, want 1 (A–B peering)", tunnels)
	}
}

func TestBootstrapConnectsIsolatedParticipant(t *testing.T) {
	e, rs := multiDomain(t)
	dep, _ := e.svc.DeployOption1(0)
	e.svc.AddMember(dep, rs["A"][0])
	e.svc.AddMember(dep, rs["B"][0])
	e.svc.AddMember(dep, rs["C"][0]) // C has no participant adjacency

	// Without bootstrap: C is isolated.
	bone, err := Build(e.svc, e.igp, dep, Config{disableBootstrap: true})
	if err != nil {
		t.Fatal(err)
	}
	if bone.Connected() {
		t.Fatal("C unexpectedly connected without bootstrap")
	}

	// With bootstrap: connected through an anycast-discovered tunnel.
	bone, err = Build(e.svc, e.igp, dep, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !bone.Connected() {
		t.Fatal("bootstrap failed to connect C")
	}
	var boots int
	for _, l := range bone.Links() {
		if l.Kind == KindBootstrap {
			boots++
			if e.net.DomainOf(l.A) != e.net.DomainByName("C").ASN &&
				e.net.DomainOf(l.B) != e.net.DomainByName("C").ASN {
				t.Error("bootstrap tunnel does not involve C")
			}
		}
	}
	if boots != 1 {
		t.Errorf("bootstrap tunnels = %d", boots)
	}
}

func TestBonePathAndDist(t *testing.T) {
	e, rs := multiDomain(t)
	dep, _ := e.svc.DeployOption1(0)
	for _, d := range []string{"A", "B"} {
		for _, r := range rs[d] {
			e.svc.AddMember(dep, r)
		}
	}
	bone, err := Build(e.svc, e.igp, dep, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := bone.Path(rs["A"][0], rs["B"][0])
	if len(p) < 2 || p[0] != rs["A"][0] || p[len(p)-1] != rs["B"][0] {
		t.Errorf("path = %v", p)
	}
	if bone.Dist(rs["A"][0], rs["B"][0]) >= graph.Inf {
		t.Error("members unreachable on bone")
	}
	// Unknown member.
	if bone.Dist(rs["T"][0], rs["B"][0]) < graph.Inf {
		t.Error("non-member has bone distance")
	}
	if bone.Path(rs["T"][0], rs["B"][0]) != nil {
		t.Error("non-member has bone path")
	}
}

func TestCongruenceImprovesWithDeployment(t *testing.T) {
	// Sparse deployment: members in A and C only (tunnel detours through
	// the anycast-discovered path). Dense deployment: every domain
	// participates with direct peering tunnels. Congruence must improve
	// (decrease toward 1).
	e, rs := multiDomain(t)
	dep, _ := e.svc.DeployOption1(0)
	e.svc.AddMember(dep, rs["A"][0])
	e.svc.AddMember(dep, rs["C"][0])
	sparse, err := Build(e.svc, e.igp, dep, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cSparse := sparse.Congruence()

	for _, d := range []string{"T", "A", "B", "C"} {
		for _, r := range rs[d] {
			e.svc.AddMember(dep, r)
		}
	}
	dense, err := Build(e.svc, e.igp, dep, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cDense := dense.Congruence()
	if math.IsNaN(cSparse) || math.IsNaN(cDense) {
		t.Fatalf("congruence NaN: %v %v", cSparse, cDense)
	}
	if cDense > cSparse {
		t.Errorf("congruence worsened with deployment: sparse %.3f dense %.3f", cSparse, cDense)
	}
	if cDense < 1 {
		t.Errorf("congruence below 1: %v", cDense)
	}
}

func TestBlindIntraConstruction(t *testing.T) {
	// Footnote 3: domains without member discovery build a join-order
	// tree via anycast. It is always connected but less congruent than
	// the k-closest mesh.
	e, rs := lineDomain(t, 6)
	dep, _ := e.svc.DeployOption1(0)
	for _, r := range rs {
		e.svc.AddMember(dep, r)
	}
	blind, err := Build(e.svc, e.igp, dep, Config{BlindIntra: true})
	if err != nil {
		t.Fatal(err)
	}
	if !blind.Connected() {
		t.Fatal("blind tree disconnected")
	}
	// A tree over n members has exactly n−1 intra links.
	intra := 0
	for _, l := range blind.Links() {
		if l.Kind == KindIntra {
			intra++
		}
	}
	if intra != len(rs)-1 {
		t.Errorf("blind intra links = %d, want %d (tree)", intra, len(rs)-1)
	}
	// Informed construction is at least as congruent.
	informed, err := Build(e.svc, e.igp, dep, Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if informed.Congruence() > blind.Congruence()+1e-9 {
		t.Errorf("informed congruence %.3f worse than blind %.3f",
			informed.Congruence(), blind.Congruence())
	}
}

func TestSingleParticipantBone(t *testing.T) {
	e, rs := multiDomain(t)
	dep, _ := e.svc.DeployOption1(0)
	e.svc.AddMember(dep, rs["A"][0])
	bone, err := Build(e.svc, e.igp, dep, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !bone.Connected() || len(bone.Members()) != 1 || len(bone.Links()) != 0 {
		t.Errorf("singleton bone wrong: %d members %d links", len(bone.Members()), len(bone.Links()))
	}
}

func TestEmptyDeploymentRejected(t *testing.T) {
	e, _ := multiDomain(t)
	dep, _ := e.svc.DeployOption1(0)
	if _, err := Build(e.svc, e.igp, dep, Config{}); err == nil {
		t.Error("empty deployment accepted")
	}
}

func TestPartitionedReportedWhenBootstrapImpossible(t *testing.T) {
	// Two participants that cannot reach each other via anycast: option-1
	// with peer-only two-hop separation (peer routes don't propagate).
	b := topology.NewBuilder()
	dA := b.AddDomain("A")
	dM := b.AddDomain("M")
	dC := b.AddDomain("C")
	rA := b.AddRouter(dA, "")
	rM := b.AddRouter(dM, "")
	rC := b.AddRouter(dC, "")
	b.Peer(rA, rM, 10)
	b.Peer(rM, rC, 10)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(t, n)
	dep, _ := e.svc.DeployOption1(0)
	e.svc.AddMember(dep, rA)
	e.svc.AddMember(dep, rC)
	_, err = Build(e.svc, e.igp, dep, Config{})
	if err == nil {
		t.Error("unbridgeable partition not reported")
	}
	if !errors.Is(err, anycast.ErrNoRoute) && !errors.Is(err, ErrPartitioned) {
		t.Logf("got err = %v (acceptable variant)", err)
	}
}

// linkSet renders a bone's links as an order-normalized sorted set, for
// equality checks between incremental and from-scratch builds.
func linkSet(links []Link) string {
	parts := make([]string, len(links))
	for i, l := range links {
		a, b := l.A, l.B
		if a > b {
			a, b = b, a
		}
		parts[i] = fmt.Sprintf("r%d-r%d/%d/%v", a, b, l.Cost, l.Kind)
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

func TestBuildIncrementalReusesUntouchedDomains(t *testing.T) {
	b := topology.NewBuilder()
	dA := b.AddDomain("A")
	dB := b.AddDomain("B")
	ra := b.AddRouters(dA, 3)
	rb := b.AddRouters(dB, 2)
	b.IntraLink(ra[0], ra[1], 1)
	b.IntraLink(ra[1], ra[2], 1)
	b.IntraLink(rb[0], rb[1], 2)
	b.Peer(ra[0], rb[0], 5)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(t, n)
	dep, _ := e.svc.DeployOption1(0)
	for _, r := range ra {
		e.svc.AddMember(dep, r)
	}
	for _, r := range rb {
		e.svc.AddMember(dep, r)
	}
	cfg := Config{K: 2}
	prev, err := Build(e.svc, e.igp, dep, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Nothing dirty: both multi-member domains carry their meshes over.
	next, stats, err := BuildIncremental(e.svc, e.igp, dep, cfg, prev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DomainsReused != 2 || stats.DomainsRebuilt != 0 {
		t.Errorf("clean rebuild stats = %+v, want 2 reused / 0 rebuilt", stats)
	}
	if got, want := linkSet(next.Links()), linkSet(prev.Links()); got != want {
		t.Errorf("clean incremental diverged:\ngot  %s\nwant %s", got, want)
	}

	// A dirty: only A's mesh recomputes, and the bone still equals a
	// from-scratch construction.
	next, stats, err = BuildIncremental(e.svc, e.igp, dep, cfg, prev, map[topology.ASN]bool{dA.ASN: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DomainsReused != 1 || stats.DomainsRebuilt != 1 {
		t.Errorf("dirty-A stats = %+v, want 1 reused / 1 rebuilt", stats)
	}
	fresh, err := Build(e.svc, e.igp, dep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := linkSet(next.Links()), linkSet(fresh.Links()); got != want {
		t.Errorf("dirty-A incremental diverged from scratch:\ngot  %s\nwant %s", got, want)
	}

	// Different knobs: reuse is refused even with a previous bone.
	_, stats, err = BuildIncremental(e.svc, e.igp, dep, Config{K: 1}, prev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DomainsReused != 0 {
		t.Errorf("knob change reused %d domains, want 0", stats.DomainsReused)
	}

	// On a many-domain internet, an incremental build with one dirty domain
	// lists the from-scratch build's links in the same order, not just the
	// same set.
	n, err = topology.TransitStub(3, 5, 0.4, topology.GenConfig{Seed: 17, RoutersPerDomain: 4, Intra: topology.IntraRandom})
	if err != nil {
		t.Fatal(err)
	}
	e = newEnv(t, n)
	if dep, err = e.svc.DeployOption1(0); err != nil {
		t.Fatal(err)
	}
	for _, asn := range n.ASNs() {
		for _, r := range n.Domain(asn).Routers {
			e.svc.AddMember(dep, r)
		}
	}
	scratch, err := Build(e.svc, e.igp, dep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inc, _, err := BuildIncremental(e.svc, e.igp, dep, cfg, scratch, map[topology.ASN]bool{n.ASNs()[0]: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := inc.Links(), scratch.Links(); !reflect.DeepEqual(got, want) {
		t.Errorf("incremental links differ from scratch in order or content:\ngot  %+v\nwant %+v", got, want)
	}
}

// refPath is the bone path x..y as graph's own parent walk gives it from
// a fresh tree, mapped to member routers: the reference Path's shared
// copies are held to.
func refPath(b *Bone, x, y topology.RouterID) []topology.RouterID {
	ix, okX := b.idx[x]
	iy, okY := b.idx[y]
	if !okX || !okY {
		return nil
	}
	var out []topology.RouterID
	for _, i := range b.g.Dijkstra(ix).PathTo(iy) {
		out = append(out, b.members[i])
	}
	return out
}

// seededBones builds bones over seeded transit-stub internets where every
// other domain participates with all but its last router, each with and
// without the anycast bootstrap: the bootstrap-free bones keep islands,
// so some member pairs are unreachable.
func seededBones(t *testing.T) (bones []*Bone, outsiders []topology.RouterID) {
	t.Helper()
	for _, seed := range []int64{1, 2, 3} {
		n, err := topology.TransitStub(3, 4, 0.3, topology.GenConfig{Seed: seed, RoutersPerDomain: 4, Intra: topology.IntraRandom})
		if err != nil {
			t.Fatal(err)
		}
		e := newEnv(t, n)
		dep, err := e.svc.DeployOption1(0)
		if err != nil {
			t.Fatal(err)
		}
		for i, asn := range n.ASNs() {
			rs := n.Domain(asn).Routers
			if i%2 == 1 {
				outsiders = append(outsiders, rs[0])
				continue
			}
			for _, r := range rs[:len(rs)-1] {
				e.svc.AddMember(dep, r)
			}
			outsiders = append(outsiders, rs[len(rs)-1])
		}
		for _, cfg := range []Config{{}, {disableBootstrap: true}} {
			b, err := Build(e.svc, e.igp, dep, cfg)
			if err != nil {
				t.Fatalf("seed %d %+v: %v", seed, cfg, err)
			}
			bones = append(bones, b)
		}
	}
	return bones, outsiders
}

// TestPathMatchesParentWalk holds Path's shared copies to a parent walk on
// a fresh tree for every member pair of seeded bones: [x] from x to
// itself, nil toward an unreachable member or from or to a non-member,
// no spare capacity, and a repeat call handing back the same backing
// array without allocating.
func TestPathMatchesParentWalk(t *testing.T) {
	bones, outsiders := seededBones(t)
	unreachable := 0
	for bi, b := range bones {
		first := map[[2]topology.RouterID][]topology.RouterID{}
		for _, x := range b.members {
			for _, y := range b.members {
				got, want := b.Path(x, y), refPath(b, x, y)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("bone %d: Path(%d, %d) = %v, parent walk %v", bi, x, y, got, want)
				}
				if x == y && !reflect.DeepEqual(got, []topology.RouterID{x}) {
					t.Errorf("bone %d: Path(%d, %d) = %v, want [%d]", bi, x, x, got, x)
				}
				if got == nil {
					unreachable++
					if b.Dist(x, y) < graph.Inf {
						t.Errorf("bone %d: Path(%d, %d) nil at distance %d", bi, x, y, b.Dist(x, y))
					}
					continue
				}
				if cap(got) != len(got) {
					t.Errorf("bone %d: Path(%d, %d) len %d cap %d", bi, x, y, len(got), cap(got))
				}
				first[[2]topology.RouterID{x, y}] = got
			}
		}
		for pair, p := range first {
			if again := b.Path(pair[0], pair[1]); &again[0] != &p[0] {
				t.Errorf("bone %d: Path%v returned a new array on repeat", bi, pair)
			}
		}
		allocs := testing.AllocsPerRun(3, func() {
			for _, x := range b.members {
				for _, y := range b.members {
					b.Path(x, y)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("bone %d: repeat Path calls allocate %.1f objects per pass, want 0", bi, allocs)
		}
		for _, o := range outsiders {
			if p := b.Path(o, b.members[0]); p != nil {
				t.Errorf("bone %d: Path from non-member %d = %v", bi, o, p)
			}
			if p := b.Path(b.members[0], o); p != nil {
				t.Errorf("bone %d: Path to non-member %d = %v", bi, o, p)
			}
		}
	}
	if unreachable == 0 {
		t.Fatal("no seeded bone has an unreachable member pair")
	}
}

// TestConcurrentFirstPathsAgree races first requests on fresh bones:
// whichever call writes a pair's path, every caller gets that one array,
// equal to the parent walk.
func TestConcurrentFirstPathsAgree(t *testing.T) {
	bones, _ := seededBones(t)
	const callers = 8
	for bi, b := range bones {
		n := len(b.members)
		got := make([][][]topology.RouterID, callers)
		var wg sync.WaitGroup
		for g := range got {
			got[g] = make([][]topology.RouterID, n*n)
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Each caller walks the pairs from its own starting point.
				for k := range n * n {
					i := (k + g*n*n/callers) % (n * n)
					got[g][i] = b.Path(b.members[i/n], b.members[i%n])
				}
			}(g)
		}
		wg.Wait()
		for i := range n * n {
			want := refPath(b, b.members[i/n], b.members[i%n])
			for g := range got {
				p := got[g][i]
				if !reflect.DeepEqual(p, want) {
					t.Fatalf("bone %d caller %d: Path(%d, %d) = %v, parent walk %v", bi, g, b.members[i/n], b.members[i%n], p, want)
				}
				if p != nil && &p[0] != &got[0][i][0] {
					t.Errorf("bone %d: callers 0 and %d hold different arrays for Path(%d, %d)", bi, g, b.members[i/n], b.members[i%n])
				}
			}
		}
	}
}
