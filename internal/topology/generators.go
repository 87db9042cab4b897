package topology

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// IntraStyle selects the shape of a generated domain's internal router
// graph.
type IntraStyle int

const (
	// IntraRing arranges routers in a cycle.
	IntraRing IntraStyle = iota
	// IntraStar connects all routers to router 0.
	IntraStar
	// IntraGrid arranges routers in a near-square mesh.
	IntraGrid
	// IntraRandom adds a spanning chain plus random extra links.
	IntraRandom
)

// GenConfig parameterises the synthetic generators.
type GenConfig struct {
	Seed             int64
	RoutersPerDomain int
	HostsPerDomain   int
	Intra            IntraStyle
	// MinIntraLatency/MaxIntraLatency bound intra-domain link costs.
	MinIntraLatency, MaxIntraLatency int64
	// MinInterLatency/MaxInterLatency bound inter-domain link costs.
	MinInterLatency, MaxInterLatency int64
}

// Defaults fills in zero fields with sensible values and returns the
// config.
func (c GenConfig) Defaults() GenConfig {
	if c.RoutersPerDomain <= 0 {
		c.RoutersPerDomain = 4
	}
	if c.HostsPerDomain < 0 {
		c.HostsPerDomain = 0
	}
	if c.MinIntraLatency <= 0 {
		c.MinIntraLatency = 1
	}
	if c.MaxIntraLatency < c.MinIntraLatency {
		c.MaxIntraLatency = c.MinIntraLatency + 9
	}
	if c.MinInterLatency <= 0 {
		c.MinInterLatency = 10
	}
	if c.MaxInterLatency < c.MinInterLatency {
		c.MaxInterLatency = c.MinInterLatency + 40
	}
	return c
}

func (c GenConfig) intraLatency(rng *rand.Rand) int64 {
	return c.MinIntraLatency + rng.Int63n(c.MaxIntraLatency-c.MinIntraLatency+1)
}

func (c GenConfig) interLatency(rng *rand.Rand) int64 {
	return c.MinInterLatency + rng.Int63n(c.MaxInterLatency-c.MinInterLatency+1)
}

// populateDomain creates the routers and hosts of one generated domain and
// wires its internal topology. It returns the domain's router list, which
// holds just the routers added here.
func populateDomain(b *Builder, d *Domain, cfg GenConfig, rng *rand.Rand) []RouterID {
	d.Routers = slices.Grow(d.Routers, cfg.RoutersPerDomain)
	d.hosts = slices.Grow(d.hosts, cfg.HostsPerDomain)
	for range cfg.RoutersPerDomain {
		b.AddRouter(d, "")
	}
	rs := d.Routers
	n := len(rs)
	switch cfg.Intra {
	case IntraRing:
		// Chain plus a closing edge. The closing edge only exists for
		// n > 2: with two routers it would duplicate the chain edge.
		// Latencies are drawn in the same order as the old full loop
		// (edge (i, i+1) at step i, closing edge last), so generated
		// topologies with n > 2 are unchanged seed-for-seed.
		for i := 0; i+1 < n; i++ {
			b.IntraLink(rs[i], rs[i+1], cfg.intraLatency(rng))
		}
		if n > 2 {
			b.IntraLink(rs[n-1], rs[0], cfg.intraLatency(rng))
		}
	case IntraStar:
		for i := 1; i < n; i++ {
			b.IntraLink(rs[0], rs[i], cfg.intraLatency(rng))
		}
	case IntraGrid:
		w := int(math.Ceil(math.Sqrt(float64(n))))
		for i := 0; i < n; i++ {
			if (i+1)%w != 0 && i+1 < n {
				b.IntraLink(rs[i], rs[i+1], cfg.intraLatency(rng))
			}
			if i+w < n {
				b.IntraLink(rs[i], rs[i+w], cfg.intraLatency(rng))
			}
		}
		// A w-wide grid can strand the tail row's first cell when n is not
		// a multiple of w and the row has a single element; guarantee
		// connectivity with a chain fallback.
		for i := 0; i+1 < n; i++ {
			if i%w == 0 && !b.net.Intra.HasEdge(int(rs[i]), int(rs[i+1])) && i+w >= n {
				b.IntraLink(rs[i], rs[i+1], cfg.intraLatency(rng))
			}
		}
	case IntraRandom:
		for i := 0; i+1 < n; i++ {
			b.IntraLink(rs[i], rs[i+1], cfg.intraLatency(rng))
		}
		extra := n / 2
		for i := 0; i < extra; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.IntraLink(rs[u], rs[v], cfg.intraLatency(rng))
			}
		}
	}
	for i := 0; i < cfg.HostsPerDomain; i++ {
		attach := rs[rng.Intn(n)]
		b.AddHost(d, attach, "", cfg.intraLatency(rng))
	}
	return rs
}

// pickBorder selects a deterministic-but-spread border router for the i-th
// inter-domain link of a domain.
func pickBorder(rs []RouterID, i int) RouterID {
	return rs[i%len(rs)]
}

// RingOfDomains generates k domains peered in a ring — the shape of the
// paper's Figure 1 world, where deployment spreads around the ring.
func RingOfDomains(k int, cfg GenConfig) (*Network, error) {
	if k < 2 {
		return nil, fmt.Errorf("topology: ring needs at least 2 domains")
	}
	cfg = cfg.Defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := NewBuilder()
	b.reserve(k, cfg.RoutersPerDomain, cfg.HostsPerDomain)
	routers := make([][]RouterID, k)
	for i := 0; i < k; i++ {
		d := b.AddDomain(fmt.Sprintf("D%d", i))
		routers[i] = populateDomain(b, d, cfg, rng)
	}
	for i := 0; i < k; i++ {
		j := (i + 1) % k
		b.Peer(pickBorder(routers[i], 0), pickBorder(routers[j], 1), cfg.interLatency(rng))
	}
	return b.Build()
}

// LineOfDomains generates the live overlay demonstrations' world: stub
// A, then transits T1..Tn each the provider of the one before it, then
// stub B below Tn. Every domain has one router; A and B each hold one
// host, Hosts[0] and Hosts[1]. Deploying the transits makes a bone the
// path between them crosses end to end.
func LineOfDomains(n int) (*Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: line needs at least 1 transit")
	}
	b := NewBuilder()
	dA := b.AddDomain("A")
	prev := b.AddRouter(dA, "")
	b.AddHost(dA, prev, "a", 1)
	for i := 1; i <= n; i++ {
		r := b.AddRouter(b.AddDomain(fmt.Sprintf("T%d", i)), "")
		b.Provide(r, prev, 10)
		prev = r
	}
	dB := b.AddDomain("B")
	rB := b.AddRouter(dB, "")
	b.Provide(prev, rB, 10)
	b.AddHost(dB, rB, "b", 1)
	return b.Build()
}

// TransitStub generates the classic two-tier internet: nTransit transit
// providers in a full peering mesh, each with stubsPerTransit customer
// stub domains (some multihomed to a second transit).
func TransitStub(nTransit, stubsPerTransit int, multihomeFrac float64, cfg GenConfig) (*Network, error) {
	if nTransit < 1 || stubsPerTransit < 1 {
		return nil, fmt.Errorf("topology: transit-stub needs at least one transit and one stub")
	}
	cfg = cfg.Defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := NewBuilder()
	b.reserve(nTransit*(1+stubsPerTransit), cfg.RoutersPerDomain, cfg.HostsPerDomain)

	transits := make([][]RouterID, nTransit)
	for i := 0; i < nTransit; i++ {
		d := b.AddDomain(fmt.Sprintf("T%d", i))
		transits[i] = populateDomain(b, d, cfg, rng)
	}
	// Full mesh of peering among transits.
	link := 0
	for i := 0; i < nTransit; i++ {
		for j := i + 1; j < nTransit; j++ {
			b.Peer(pickBorder(transits[i], link), pickBorder(transits[j], link+1), cfg.interLatency(rng))
			link++
		}
	}
	for i := 0; i < nTransit; i++ {
		for s := 0; s < stubsPerTransit; s++ {
			d := b.AddDomain(fmt.Sprintf("S%d.%d", i, s))
			rs := populateDomain(b, d, cfg, rng)
			b.Provide(pickBorder(transits[i], s), pickBorder(rs, 0), cfg.interLatency(rng))
			if nTransit > 1 && rng.Float64() < multihomeFrac {
				other := rng.Intn(nTransit - 1)
				if other >= i {
					other++
				}
				b.Provide(pickBorder(transits[other], s+1), pickBorder(rs, 1), cfg.interLatency(rng))
			}
		}
	}
	return b.Build()
}

// Waxman generates a random geometric AS-level graph: domains are placed
// in the unit square and linked with probability alpha·exp(−d/(beta·L)).
// Relationships are assigned by degree: the higher-degree endpoint becomes
// the provider, equal degrees peer.
func Waxman(nDomains int, alpha, beta float64, cfg GenConfig) (*Network, error) {
	if nDomains < 2 {
		return nil, fmt.Errorf("topology: waxman needs at least 2 domains")
	}
	cfg = cfg.Defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := NewBuilder()
	b.reserve(nDomains, cfg.RoutersPerDomain, cfg.HostsPerDomain)

	type pt struct{ x, y float64 }
	pts := make([]pt, nDomains)
	routers := make([][]RouterID, nDomains)
	for i := range pts {
		pts[i] = pt{rng.Float64(), rng.Float64()}
		d := b.AddDomain(fmt.Sprintf("W%d", i))
		routers[i] = populateDomain(b, d, cfg, rng)
	}
	const maxDist = math.Sqrt2
	type cand struct{ i, j int }
	var edges []cand
	deg := make([]int, nDomains)
	present := make(map[[2]int]bool)
	for i := 0; i < nDomains; i++ {
		for j := i + 1; j < nDomains; j++ {
			dx, dy := pts[i].x-pts[j].x, pts[i].y-pts[j].y
			dist := math.Hypot(dx, dy)
			if rng.Float64() < alpha*math.Exp(-dist/(beta*maxDist)) {
				edges = append(edges, cand{i, j})
				present[[2]int{i, j}] = true
				deg[i]++
				deg[j]++
			}
		}
	}
	// Guarantee connectivity with a chain. The set lookup replaces an
	// O(n·E) rescan of the edge list per chain segment, which dominated
	// generation time at 10k+ domains; it draws no randomness, so output
	// is unchanged seed-for-seed. Candidates are stored with i < j, so
	// only the (i, i+1) orientation can exist.
	for i := 0; i+1 < nDomains; i++ {
		if !present[[2]int{i, i + 1}] {
			edges = append(edges, cand{i, i + 1})
			deg[i]++
			deg[i+1]++
		}
	}
	for li, e := range edges {
		a := pickBorder(routers[e.i], li)
		c := pickBorder(routers[e.j], li+1)
		switch {
		case deg[e.i] > deg[e.j]:
			b.Provide(a, c, cfg.interLatency(rng))
		case deg[e.j] > deg[e.i]:
			b.Provide(c, a, cfg.interLatency(rng))
		default:
			b.Peer(a, c, cfg.interLatency(rng))
		}
	}
	return b.Build()
}

// BarabasiAlbert generates a preferential-attachment AS graph: each new
// domain attaches as a customer to m existing domains chosen with
// probability proportional to degree, yielding the heavy-tailed provider
// hierarchy observed in the real AS graph.
func BarabasiAlbert(nDomains, m int, cfg GenConfig) (*Network, error) {
	if nDomains < 2 || m < 1 {
		return nil, fmt.Errorf("topology: barabasi-albert needs n ≥ 2, m ≥ 1")
	}
	cfg = cfg.Defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := NewBuilder()
	b.reserve(nDomains, cfg.RoutersPerDomain, cfg.HostsPerDomain)

	routers := make([][]RouterID, 0, nDomains)
	deg := make([]int, 0, nDomains)
	var attachBag []int // node repeated deg times, for preferential choice

	addDomain := func(i int) {
		d := b.AddDomain(fmt.Sprintf("B%d", i))
		routers = append(routers, populateDomain(b, d, cfg, rng))
		deg = append(deg, 0)
	}

	addDomain(0)
	linkIdx := 0
	for i := 1; i < nDomains; i++ {
		addDomain(i)
		targets := map[int]bool{}
		want := m
		if want > i {
			want = i
		}
		for len(targets) < want {
			var t int
			if len(attachBag) == 0 {
				t = rng.Intn(i)
			} else {
				t = attachBag[rng.Intn(len(attachBag))]
			}
			if t != i {
				targets[t] = true
			}
		}
		ordered := make([]int, 0, len(targets))
		for t := range targets {
			ordered = append(ordered, t)
		}
		sort.Ints(ordered)
		for _, t := range ordered {
			// Existing (higher-degree) domain provides transit to newcomer.
			b.Provide(pickBorder(routers[t], linkIdx), pickBorder(routers[i], linkIdx+1), cfg.interLatency(rng))
			linkIdx++
			deg[t]++
			deg[i]++
			attachBag = append(attachBag, t, i)
		}
	}
	return b.Build()
}
