package topology

import (
	"strings"
	"testing"
)

const sampleASRel = `# CAIDA-style AS relationship sample
# provider|customer|-1, peer|peer|0
174|7018|0
174|64512|-1
7018|64512|-1
7018|64513|-1
64512|64513|0
`

func loadSample(t *testing.T, text string) *Network {
	t.Helper()
	n, err := ParseASRelationships(strings.NewReader(text), GenConfig{Seed: 1, RoutersPerDomain: 2, HostsPerDomain: 1})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return n
}

func TestParseASRelationships(t *testing.T) {
	n := loadSample(t, sampleASRel)
	if len(n.Domains) != 4 {
		t.Fatalf("domains = %d, want 4", len(n.Domains))
	}
	// Domains are created in first-appearance order: 174, 7018, 64512, 64513.
	wantNames := []string{"AS174", "AS7018", "AS64512", "AS64513"}
	for i, asn := range n.ASNs() {
		if got := n.Domains[asn].Name; got != wantNames[i] {
			t.Errorf("domain %d name = %q, want %q", i, got, wantNames[i])
		}
	}
	if len(n.Inter) != 5 {
		t.Fatalf("inter links = %d, want 5", len(n.Inter))
	}
	// AS174 peers with AS7018 and provides to AS64512.
	d174 := n.DomainByName("AS174")
	nbs := n.Neighbors(d174.ASN)
	if len(nbs) != 2 {
		t.Fatalf("AS174 neighbors = %d, want 2", len(nbs))
	}
	if nbs[0].ASN != n.DomainByName("AS7018").ASN || nbs[0].Rel != RelPeer {
		t.Errorf("AS174→AS7018 = %v, want peer", nbs[0].Rel)
	}
	if nbs[1].ASN != n.DomainByName("AS64512").ASN || nbs[1].Rel != RelProvider {
		t.Errorf("AS174→AS64512 = %v, want provider", nbs[1].Rel)
	}
	// The customer side sees the inverted relationship.
	d64513 := n.DomainByName("AS64513")
	for _, nb := range n.Neighbors(d64513.ASN) {
		if nb.ASN == n.DomainByName("AS7018").ASN && nb.Rel != RelCustomer {
			t.Errorf("AS64513→AS7018 = %v, want customer", nb.Rel)
		}
	}
}

func TestParseASRelationshipsTokensAndDups(t *testing.T) {
	n := loadSample(t, `
10|20|p2c
20|30|c2p
10|30|p2p
30|10|0
40|10|2
`)
	// 30|10|0 duplicates the 10|30 pair and must be dropped.
	if len(n.Inter) != 4 {
		t.Fatalf("inter links = %d, want 4 (dup pair dropped)", len(n.Inter))
	}
	d10, d20, d30 := n.DomainByName("AS10"), n.DomainByName("AS20"), n.DomainByName("AS30")
	for _, nb := range n.Neighbors(d10.ASN) {
		switch nb.ASN {
		case d20.ASN:
			if nb.Rel != RelProvider {
				t.Errorf("AS10→AS20 = %v, want provider (p2c)", nb.Rel)
			}
		case d30.ASN:
			if nb.Rel != RelPeer {
				t.Errorf("AS10→AS30 = %v, want peer (p2p)", nb.Rel)
			}
		}
	}
	// c2p: 20 is the customer of 30, so 30 provides.
	for _, nb := range n.Neighbors(d30.ASN) {
		if nb.ASN == d20.ASN && nb.Rel != RelProvider {
			t.Errorf("AS30→AS20 = %v, want provider (from c2p)", nb.Rel)
		}
	}
}

func TestParseASRelationshipsErrors(t *testing.T) {
	cases := []struct {
		name, text string
	}{
		{"malformed", "1|2\n"},
		{"badASN", "x|2|0\n"},
		{"selfLoop", "7|7|0\n"},
		{"badRel", "1|2|9\n"},
		{"empty", "# only comments\n"},
	}
	for _, c := range cases {
		if _, err := ParseASRelationships(strings.NewReader(c.text), GenConfig{}); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestParseASRelationshipsRejectsProviderCycle: three ASes each the
// customer of the next are no hierarchy; the error names the cycle.
func TestParseASRelationshipsRejectsProviderCycle(t *testing.T) {
	_, err := ParseASRelationships(strings.NewReader("10|20|c2p\n30|20|p2c\n10|30|-1\n40|10|0\n"), GenConfig{})
	const want = "customer→provider cycle AS10 → AS20 → AS30 → AS10"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want one naming %q", err, want)
	}
	// The same three links as a chain are a hierarchy.
	loadSample(t, "10|20|c2p\n30|20|p2c\n30|10|-1\n40|10|0\n")
}

func TestParseASRelationshipsDeterministic(t *testing.T) {
	a := loadSample(t, sampleASRel)
	b := loadSample(t, sampleASRel)
	if len(a.Inter) != len(b.Inter) {
		t.Fatal("same-seed loads differ in link count")
	}
	for i := range a.Inter {
		if a.Inter[i] != b.Inter[i] {
			t.Fatalf("same-seed loads differ at link %d: %v vs %v", i, a.Inter[i], b.Inter[i])
		}
	}
}

func TestParseASRelationshipsSerial2Columns(t *testing.T) {
	// serial-2 appends a source column; it must be ignored.
	n := loadSample(t, "5|6|-1|bgp\n6|7|0|mlp\n")
	if len(n.Inter) != 2 {
		t.Fatalf("inter links = %d, want 2", len(n.Inter))
	}
}
