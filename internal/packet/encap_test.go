package packet

import "fmt"

// encapVN builds the full on-the-wire form of an IPvN packet tunnelled
// inside an underlay packet, V4Header{Proto: ProtoVNEncap}(VNHeader(payload)),
// into a slice of its own.
func encapVN(outer V4Header, inner VNHeader, payload []byte) ([]byte, error) {
	outer.Proto = ProtoVNEncap
	b := NewSerializeBuffer()
	if err := SerializeVN(b, payload, &outer, &inner); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// decapVN is the copying twin of DecapVNShared, composed from the two
// header decoders: the inner header owns its option values, as
// DecodeVN's do.
func decapVN(wire []byte) (V4Header, VNHeader, []byte, error) {
	outer, inner, err := DecodeV4(wire)
	if err != nil {
		return V4Header{}, VNHeader{}, nil, err
	}
	if outer.Proto != ProtoVNEncap {
		return V4Header{}, VNHeader{}, nil, fmt.Errorf("packet: protocol %s is not vn-encap", outer.Proto)
	}
	vn, payload, err := DecodeVN(inner)
	if err != nil {
		return V4Header{}, VNHeader{}, nil, err
	}
	return outer, vn, payload, nil
}
