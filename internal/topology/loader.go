package topology

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
)

// This file loads measured AS-level topologies from the `as1|as2|rel`
// text format used by the CAIDA AS-relationship datasets (and the
// Rocketfuel-derived variants that annotate inferred relationships the
// same way). Each line is one inter-domain adjacency; the loader builds
// a Network with one synthetic domain per AS, so measured internets can
// drive the same experiments as the generators.

// asRelEdge is one parsed dataset line.
type asRelEdge struct {
	a, b int // original AS numbers from the file
	rel  Rel // relationship of a toward b
}

// parseRelToken maps the relationship column to a's relationship toward
// b. Numeric codes follow CAIDA serial-1/serial-2: -1 means a is the
// provider of b, 0 settlement-free peering, 1 the inverted orientation
// some mirrors use, and 2 sibling ASes (treated as peering — siblings
// exchange all routes). The textual tokens appear in Rocketfuel-style
// relationship files.
func parseRelToken(tok string) (Rel, error) {
	switch strings.TrimSpace(tok) {
	case "-1", "p2c":
		return RelProvider, nil
	case "0", "p2p":
		return RelPeer, nil
	case "1", "c2p":
		return RelCustomer, nil
	case "2", "s2s":
		return RelPeer, nil
	default:
		return 0, fmt.Errorf("unknown relationship %q", tok)
	}
}

// ParseASRelationships reads an `as1|as2|rel` relationship dataset and
// assembles a Network: one domain per AS (named "AS<number>", created in
// first-appearance order and renumbered into the internal ASN space),
// populated with cfg.RoutersPerDomain routers and cfg.HostsPerDomain
// hosts like the synthetic generators. `#` comment lines and blank
// lines are skipped; extra `|`-separated columns (the serial-2 source
// column) are ignored. Duplicate AS pairs keep the first relationship
// seen; self-loops and malformed lines are errors.
func ParseASRelationships(r io.Reader, cfg GenConfig) (*Network, error) {
	cfg = cfg.Defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := NewBuilder()

	domains := map[int]*Domain{}    // original AS number → domain
	routers := map[int][]RouterID{} // original AS number → its routers
	linkCount := map[int]int{}      // original AS number → links wired so far
	seen := map[[2]int]bool{}       // unordered AS pair → already linked
	var edges []asRelEdge
	var order []int // original AS numbers in first-appearance order

	domainFor := func(as int) {
		if _, ok := domains[as]; !ok {
			domains[as] = b.AddDomain(fmt.Sprintf("AS%d", as))
			order = append(order, as)
		}
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "|")
		if len(fields) < 3 {
			return nil, fmt.Errorf("topology: as-rel line %d: want as1|as2|rel, got %q", lineNo, line)
		}
		as1, err := strconv.Atoi(strings.TrimSpace(fields[0]))
		if err != nil {
			return nil, fmt.Errorf("topology: as-rel line %d: bad AS %q", lineNo, fields[0])
		}
		as2, err := strconv.Atoi(strings.TrimSpace(fields[1]))
		if err != nil {
			return nil, fmt.Errorf("topology: as-rel line %d: bad AS %q", lineNo, fields[1])
		}
		if as1 == as2 {
			return nil, fmt.Errorf("topology: as-rel line %d: self-loop on AS%d", lineNo, as1)
		}
		rel, err := parseRelToken(fields[2])
		if err != nil {
			return nil, fmt.Errorf("topology: as-rel line %d: %v", lineNo, err)
		}
		pair := [2]int{as1, as2}
		if as2 < as1 {
			pair = [2]int{as2, as1}
		}
		if seen[pair] {
			continue // datasets occasionally repeat a pair; first wins
		}
		seen[pair] = true
		domainFor(as1)
		domainFor(as2)
		edges = append(edges, asRelEdge{a: as1, b: as2, rel: rel})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("topology: as-rel read: %w", err)
	}
	if len(edges) == 0 {
		return nil, fmt.Errorf("topology: as-rel input has no adjacencies")
	}

	// Domains are populated once the file is read, so the builder can be
	// sized for them; the order, and so every draw, is first appearance.
	b.reserve(len(order), cfg.RoutersPerDomain, cfg.HostsPerDomain)
	for _, as := range order {
		routers[as] = populateDomain(b, domains[as], cfg, rng)
	}
	for _, e := range edges {
		ra := pickBorder(routers[e.a], linkCount[e.a])
		rb := pickBorder(routers[e.b], linkCount[e.b])
		linkCount[e.a]++
		linkCount[e.b]++
		switch e.rel {
		case RelProvider:
			b.Provide(ra, rb, cfg.interLatency(rng))
		case RelCustomer:
			b.Provide(rb, ra, cfg.interLatency(rng))
		default:
			b.Peer(ra, rb, cfg.interLatency(rng))
		}
	}
	return b.Build()
}

// LoadASRelationshipsFile is ParseASRelationships over a file on disk.
func LoadASRelationshipsFile(path string, cfg GenConfig) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("topology: as-rel open: %w", err)
	}
	defer f.Close()
	return ParseASRelationships(f, cfg)
}
