package addr

import "fmt"

// This file implements the address-level half of the paper's §3.2 anycast
// options. Which routes get advertised where is the business of
// internal/anycast and internal/routing/bgp; here we only define how
// anycast addresses are carved out of the address space.
//
// Option 1 — "non-aggregatable addresses, global routes": a designated
// portion of the unicast space is set aside for anycast and each address is
// advertised individually (host routes) by every participant.
//
// Option 2 — "aggregatable addresses, default routes": the anycast address
// is an ordinary unicast address drawn from the *default* ISP's own block,
// so non-participants need no changes at all — longest-prefix match on the
// default ISP's aggregate carries the packet toward the default domain.
//
// GIA (Katabi et al.), discussed as an eventual replacement, prefixes a
// well-known "Anycast Indicator" and embeds the home domain's unicast bits.

// AnycastReserved is the option-1 designated anycast block: a slice of the
// unicast space set aside by convention (we use the top of class E).
var AnycastReserved = MustParsePrefix("240.0.0.0/8")

// Option1Address returns the g-th option-1 anycast address from the
// designated block. One address serves one IPvN deployment, so g is
// expected to stay very small (§3.2: "ideally one").
func Option1Address(g uint32) (V4, error) {
	if uint64(g)+1 >= AnycastReserved.Size() {
		return 0, fmt.Errorf("addr: anycast group %d outside reserved block", g)
	}
	return V4(uint32(AnycastReserved.Addr) + g + 1), nil
}

// Option2Address returns an option-2 anycast address: the g-th address of a
// reserved sub-block at the top of the default ISP's own aggregate. Being
// ordinary unicast addresses, these need no routing-infrastructure changes.
func Option2Address(defaultISP Prefix, g uint32) (V4, error) {
	if defaultISP.Len > 30 {
		return 0, fmt.Errorf("addr: default ISP block %s too small for anycast carve-out", defaultISP)
	}
	// Reserve the top quarter of the block, allocating downward from its end.
	top := uint32(defaultISP.Addr) + uint32(defaultISP.Size()) - 1
	a := V4(top - g)
	if !defaultISP.Contains(a) {
		return 0, fmt.Errorf("addr: anycast group %d outside default ISP block %s", g, defaultISP)
	}
	return a, nil
}

// GIAIndicator is the well-known GIA anycast-indicator prefix.
var GIAIndicator = MustParsePrefix("248.0.0.0/5")

// GIAAddress builds a GIA-style anycast address: indicator bits, then the
// home domain's /16 site bits, then the group number in the low bits.
func GIAAddress(home Prefix, g uint8) (V4, error) {
	if home.Len < 8 || home.Len > 16 {
		return 0, fmt.Errorf("addr: GIA home domain prefix %s must be /8../16", home)
	}
	site := (uint32(home.Addr) >> 16) & 0x07FF // 11 bits of the home /16
	a := uint32(GIAIndicator.Addr) | site<<8 | uint32(g)
	return V4(a), nil
}
