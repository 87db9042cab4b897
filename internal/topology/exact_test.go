package topology

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// Every generator's seeded output is pinned by a hash of everything it
// builds, so a change to how a world is built (allocation, naming,
// sizing) that moves a single field, name or link fails here.

// worldHash hashes a network's domains (ASN, name, prefix, router list),
// routers (id, domain, loopback, border flag, name), hosts (id, domain,
// attach router, address, rank, access latency, name), intra edges and
// inter links.
func worldHash(n *Network) string {
	h := sha256.New()
	for _, asn := range n.ASNs() {
		d := n.Domain(asn)
		fmt.Fprintf(h, "D %d %q %v %v\n", d.ASN, d.Name, d.Prefix, d.Routers)
	}
	for _, r := range n.Routers {
		fmt.Fprintf(h, "R %d %d %v %t %q\n", r.ID, r.Domain, r.Loopback, r.Border, r.Name)
		for _, e := range n.Intra.Neighbors(int(r.ID)) {
			fmt.Fprintf(h, "E %d %d\n", e.To, e.Weight)
		}
	}
	for _, x := range n.Hosts {
		fmt.Fprintf(h, "H %d %d %d %v %d %d %q\n", x.ID, x.Domain, x.Attach, x.Addr, x.Rank, x.AccessLatency, x.Name)
	}
	for _, l := range n.Inter {
		fmt.Fprintf(h, "I %d %d %d %d\n", l.From, l.To, l.Rel, l.Latency)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// mixedNames is a hand-built world whose AddRouter and AddHost calls mix
// explicit and default names and interleave domains.
func mixedNames() (*Network, error) {
	b := NewBuilder()
	x, y := b.AddDomain("X"), b.AddDomain("Y")
	x0 := b.AddRouter(x, "")
	y0 := b.AddRouter(y, "edge")
	x1 := b.AddRouter(x, "core")
	y1 := b.AddRouter(y, "")
	x2 := b.AddRouter(x, "")
	b.IntraLink(x0, x1, 2)
	b.IntraLink(x1, x2, 3)
	b.IntraLink(y0, y1, 4)
	b.Provide(x2, y0, 10)
	for i := 0; i < 40; i++ {
		switch i % 4 {
		case 0:
			b.AddHost(x, x0, "", 1)
		case 1:
			b.AddHost(y, y1, fmt.Sprintf("named%d", i), 2)
		case 2:
			b.AddHost(y, y0, "", 3)
		default:
			b.AddHost(x, x2, "", 0)
		}
	}
	return b.Build()
}

// exactCases are the pinned worlds and their hashes, taken from the
// generators before they built worlds from slabs and one name string.
var exactCases = []struct {
	name string
	gen  func() (*Network, error)
	hash string
}{
	{"ring2", func() (*Network, error) {
		return RingOfDomains(2, GenConfig{Seed: 1, RoutersPerDomain: 3, HostsPerDomain: 4})
	}, "427c00340a000246e4f4ad2169ad3ebb28711277f242e1c4b71b3703c20fdf7c"},
	{"ring12/grid", func() (*Network, error) {
		return RingOfDomains(12, GenConfig{Seed: 2, RoutersPerDomain: 7, HostsPerDomain: 5, Intra: IntraGrid})
	}, "ead74fd7836de59930ae85193038cfaeaf6a6f70a1749287bf3e57175b3ccf78"},
	{"transitstub/star", func() (*Network, error) {
		return TransitStub(3, 4, 0.4, GenConfig{Seed: 7, RoutersPerDomain: 3, HostsPerDomain: 2, Intra: IntraStar})
	}, "e01b856a411f51ccec36ff0fd46e930add2d58f1d455cbc7c00aedcb550da156"},
	{"transitstub/random", func() (*Network, error) {
		return TransitStub(5, 9, 0.5, GenConfig{Seed: 8, RoutersPerDomain: 6, HostsPerDomain: 3, Intra: IntraRandom})
	}, "4eb617cc49310d891b62dbb53dc8f3ae8c54a9a7d945f1b8aca3abf3062aae9d"},
	{"transitstub/cold_start", func() (*Network, error) {
		return TransitStub(40, 99, 0.3, GenConfig{Seed: 42, RoutersPerDomain: 2, HostsPerDomain: 50})
	}, "c19adf05b4c8f9f96a0a834e19b72573ea95f57ac44ada5d409bd39388d76e6d"},
	{"waxman", func() (*Network, error) {
		return Waxman(60, 0.3, 0.3, GenConfig{Seed: 3, RoutersPerDomain: 3, HostsPerDomain: 2})
	}, "3a24d144ae0f7e3824a1122b23b37a9f4b73c3665d3533456c418f842ce91096"},
	{"barabasi", func() (*Network, error) {
		return BarabasiAlbert(200, 2, GenConfig{Seed: 4, RoutersPerDomain: 2, HostsPerDomain: 3, Intra: IntraRandom})
	}, "a4bca0bfb3735bcb8639cc0bdf128770dd2841a00abb2ad1fa5066c98141af6b"},
	{"asrel/sample", func() (*Network, error) {
		return ParseASRelationships(strings.NewReader(sampleASRel), GenConfig{Seed: 1, RoutersPerDomain: 2, HostsPerDomain: 1})
	}, "962450ee21c006d4d709955ba5ee8e18ea0718efa67346bf9980815d6bf5b570"},
	{"asrel/tokens", func() (*Network, error) {
		return ParseASRelationships(strings.NewReader("10|20|p2c\n20|30|c2p\n10|30|p2p\n30|10|0\n40|10|2\n5|6|-1|bgp\n6|10|0|mlp\n"),
			GenConfig{Seed: 5, RoutersPerDomain: 4, HostsPerDomain: 3, Intra: IntraGrid})
	}, "82f0ea0b291f272a47c0da74cc755ace63b26908d3ba54b80fe34949b12135d6"},
	{"hand/mixed-names", mixedNames, "dd6c28f6175dbb0478ec97b3278df3d4bb24f9e99d19d47123c79af68fd16506"},
}

func TestGeneratorsExact(t *testing.T) {
	for _, c := range exactCases {
		if testing.Short() && c.name == "transitstub/cold_start" {
			continue
		}
		n, err := c.gen()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := worldHash(n); got != c.hash {
			t.Errorf("%s: hash %s, pinned %s", c.name, got, c.hash)
		}
	}
}

// TestDefaultNamesBesideExplicit: Build gives a node added without a name
// "<domain>-r<index in domain>" or "<domain>-h<id>" and keeps every
// explicit name as given.
func TestDefaultNamesBesideExplicit(t *testing.T) {
	n, err := mixedNames()
	if err != nil {
		t.Fatal(err)
	}
	var routers []string
	for _, r := range n.Routers {
		routers = append(routers, r.Name)
	}
	if got, want := strings.Join(routers, " "), "X-r0 edge core Y-r1 X-r2"; got != want {
		t.Errorf("router names %q, want %q", got, want)
	}
	for _, h := range n.Hosts {
		want := fmt.Sprintf("%s-h%d", n.Domain(h.Domain).Name, h.ID)
		if h.ID%4 == 1 {
			want = fmt.Sprintf("named%d", h.ID)
		}
		if h.Name != want {
			t.Errorf("host %d named %q, want %q", h.ID, h.Name, want)
		}
	}
}
