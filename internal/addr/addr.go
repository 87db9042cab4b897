// Package addr defines the address types used throughout the evolvable
// internet architecture: 32-bit IPv(N-1) underlay addresses ("v4-like"),
// CIDR prefixes over them, and 128-bit versioned IPvN addresses, including
// the RFC 3056-style self-addressing scheme the paper proposes for hosts
// whose access provider has not yet adopted IPvN (§3.3.2), and GIA-style
// anycast-indicator addressing (§3.2).
package addr

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// V4 is a 32-bit underlay address, playing the role of IPv(N-1) — the
// ubiquitously deployed internet protocol the next generation is layered
// over. It is stored in host order; the wire format is big-endian.
type V4 uint32

// V4FromOctets assembles an address from its four dotted-quad octets.
func V4FromOctets(a, b, c, d byte) V4 {
	return V4(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// Octets returns the four dotted-quad octets of the address.
func (a V4) Octets() (byte, byte, byte, byte) {
	return byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)
}

// String renders the address in dotted-quad notation.
func (a V4) String() string {
	o1, o2, o3, o4 := a.Octets()
	return fmt.Sprintf("%d.%d.%d.%d", o1, o2, o3, o4)
}

// ParseV4 parses dotted-quad notation.
func ParseV4(s string) (V4, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("addr: %q is not dotted-quad", s)
	}
	var out V4
	for _, p := range parts {
		n, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("addr: bad octet %q in %q", p, s)
		}
		out = out<<8 | V4(n)
	}
	return out, nil
}

// MustParseV4 is ParseV4 for constants in tests and examples; it panics on
// malformed input.
func MustParseV4(s string) V4 {
	a, err := ParseV4(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Prefix is a CIDR block over the underlay address space.
type Prefix struct {
	Addr V4
	Len  uint8 // 0..32
}

// ErrPrefixExhausted is returned by Pool.Next when no addresses remain.
var ErrPrefixExhausted = errors.New("addr: prefix exhausted")

// MakePrefix returns the canonical (masked) prefix for addr/len.
func MakePrefix(a V4, length uint8) Prefix {
	if length > 32 {
		length = 32
	}
	return Prefix{Addr: a & maskOf(length), Len: length}
}

// HostPrefix is the /32 covering exactly a.
func HostPrefix(a V4) Prefix { return Prefix{Addr: a, Len: 32} }

func maskOf(length uint8) V4 {
	if length == 0 {
		return 0
	}
	return V4(^uint32(0) << (32 - length))
}

// Mask returns the netmask of the prefix.
func (p Prefix) Mask() V4 { return maskOf(p.Len) }

// Contains reports whether a falls inside the prefix.
func (p Prefix) Contains(a V4) bool {
	return a&p.Mask() == p.Addr&p.Mask()
}

// Size returns the number of addresses covered by the prefix.
func (p Prefix) Size() uint64 { return uint64(1) << (32 - p.Len) }

// String renders the prefix in CIDR notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.Addr.String(), p.Len)
}

// ParsePrefix parses CIDR notation, canonicalising the network address.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("addr: %q is not CIDR", s)
	}
	a, err := ParseV4(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	n, err := strconv.ParseUint(s[slash+1:], 10, 8)
	if err != nil || n > 32 {
		return Prefix{}, fmt.Errorf("addr: bad prefix length in %q", s)
	}
	return MakePrefix(a, uint8(n)), nil
}

// MustParsePrefix is ParsePrefix that panics on malformed input.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Pool allocates addresses sequentially from a prefix. The zero address of
// the prefix (its network address) is never handed out, matching the
// convention that it names the block itself.
type Pool struct {
	prefix Prefix
	next   uint64
}

// NewPool returns an allocator over p.
func NewPool(p Prefix) *Pool {
	return &Pool{prefix: p, next: 1}
}

// Next allocates the next unused address in the block.
func (pl *Pool) Next() (V4, error) {
	if pl.next >= pl.prefix.Size() {
		return 0, ErrPrefixExhausted
	}
	a := V4(uint32(pl.prefix.Addr) + uint32(pl.next))
	pl.next++
	return a, nil
}
