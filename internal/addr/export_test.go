package addr

import "fmt"

// ContainsPrefix reports whether q is wholly inside p.
func (p Prefix) ContainsPrefix(q Prefix) bool {
	return q.Len >= p.Len && p.Contains(q.Addr)
}

// Subnet carves the i-th sub-prefix of the given length out of p.
func (p Prefix) Subnet(length uint8, i uint32) (Prefix, error) {
	if length < p.Len || length > 32 {
		return Prefix{}, fmt.Errorf("addr: cannot take /%d subnet of %s", length, p)
	}
	n := uint64(1) << (length - p.Len)
	if uint64(i) >= n {
		return Prefix{}, fmt.Errorf("addr: subnet index %d out of range for /%d of %s", i, length, p)
	}
	base := uint32(p.Addr) | (i << (32 - length))
	return Prefix{Addr: V4(base), Len: length}, nil
}

// Compare orders addresses lexicographically by bits; it returns -1, 0 or 1.
func (v VN) Compare(w VN) int {
	switch {
	case v.Hi < w.Hi:
		return -1
	case v.Hi > w.Hi:
		return 1
	case v.Lo < w.Lo:
		return -1
	case v.Lo > w.Lo:
		return 1
	}
	return 0
}
