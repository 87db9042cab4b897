package tunnel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/packet"
	"github.com/evolvable-net/evolve/internal/trace"
)

// chainResult is everything one run of a delivery's wire chain shows from
// outside: the wire bytes after every leg, the stage and text of the
// error that stopped it, what arrived, the encaps and decaps the relay and
// destination endpoints counted, and their span events.
type chainResult struct {
	wires          [][]byte
	failed         string
	from           addr.V4
	inner          packet.VNHeader
	payload        []byte
	encaps, decaps uint64
	events         []trace.Event
}

// observe attaches one recorder and one counter table to the chain's
// relay and destination endpoints, and returns what reads them into r.
func (r *chainResult) observe(tag uint32, eps ...*Endpoint) func() {
	rec := trace.NewRecorder()
	var c trace.Counters
	for _, ep := range eps {
		ep.Observe(rec, &c, tag)
	}
	return func() {
		s := c.Snapshot()
		r.encaps, r.decaps = s.Encaps, s.Decaps
		r.events = rec.Events()
	}
}

func (r *chainResult) fail(stage string, err error) { r.failed = fmt.Sprintf("%s: %v", stage, err) }

// leg records the wire as it stands after one leg; both chains reuse the
// buffer for the next.
func (r *chainResult) leg(wire []byte) { r.wires = append(r.wires, bytes.Clone(wire)) }

func (r *chainResult) arrive(from addr.V4, inner packet.VNHeader, payload []byte) {
	r.from = from
	r.payload = bytes.Clone(payload)
	opts := make([]packet.Option, len(inner.Options))
	for i, o := range inner.Options {
		opts[i] = packet.Option{Type: o.Type, Value: bytes.Clone(o.Value)}
	}
	inner.Options = opts
	r.inner = inner
}

// chainCase is one randomized delivery: the source's encapsulation toward
// the anycast address, the bone hops' loopbacks (hops[0] is the ingress),
// and the destination's underlay address.
type chainCase struct {
	src, anycast, dst addr.V4
	hops              []addr.V4
	hdr               packet.VNHeader
	payload           []byte
	tag               uint32
}

// serializerChain runs c the way a serialize-per-hop sender does: the
// host encapsulates through the layer serializers, the ingress parses,
// and every relay leg is an EncapToShared on one endpoint answered by a
// DecapShared on the other, ping-pong, down to the destination.
func serializerChain(c chainCase) chainResult {
	var r chainResult
	host := NewEndpoint(c.src)
	a, b := NewEndpoint(0), NewEndpoint(0)
	defer r.observe(c.tag, a, b)()

	wire, err := host.EncapToShared(c.anycast, c.hdr, c.payload)
	if err != nil {
		r.fail("emit", err)
		return r
	}
	r.leg(wire)
	_, inner, pl, err := packet.DecapVNShared(wire, nil)
	if err != nil {
		r.fail("ingress", err)
		return r
	}
	relay, spare := a, b
	prev := c.hops[0]
	for j := 1; j < len(c.hops); j++ {
		relay.Local = prev
		if wire, err = relay.EncapToShared(c.hops[j], inner, pl); err != nil {
			r.fail(fmt.Sprintf("relay %d", j), err)
			return r
		}
		r.leg(wire)
		relay.Local = c.hops[j]
		if _, inner, pl, err = relay.DecapShared(wire, nil); err != nil {
			r.fail(fmt.Sprintf("relay decap %d", j), err)
			return r
		}
		prev = c.hops[j]
		relay, spare = spare, relay
	}
	relay.Local = prev
	if wire, err = relay.EncapToShared(c.dst, inner, pl); err != nil {
		r.fail("final", err)
		return r
	}
	r.leg(wire)
	spare.Local = c.dst
	from, inner, pl, err := spare.DecapShared(wire, nil)
	if err != nil {
		r.fail("final decap", err)
		return r
	}
	r.arrive(from, inner, pl)
	return r
}

// templateChain runs c the way core's send engine does: one VNTemplate
// emission, then the same wire bytes patched in place — ForwardShared per
// bone hop, PatchEncap toward the destination — and one parse at the end.
func templateChain(c chainCase) chainResult {
	var r chainResult
	ep, epDst := NewEndpoint(0), NewEndpoint(0)
	defer r.observe(c.tag, ep, epDst)()

	// The template freezes the packet as it leaves the source: hop limit
	// defaulted and already decremented once.
	hdr := c.hdr
	if hdr.HopLimit == 0 {
		hdr.HopLimit = packet.DefaultHopLimit
	}
	hdr.HopLimit--
	var tmpl packet.VNTemplate
	if err := tmpl.Build(packet.V4Header{Proto: packet.ProtoVNEncap, Src: c.src, Dst: c.anycast}, hdr); err != nil {
		r.fail("emit", err)
		return r
	}
	wire, err := tmpl.Emit(nil, c.payload, c.tag)
	if err != nil {
		r.fail("emit", err)
		return r
	}
	r.leg(wire)
	ep.Local = c.hops[0]
	for j := 1; j < len(c.hops); j++ {
		if err := ep.ForwardShared(wire, c.hops[j]); err != nil {
			r.fail(fmt.Sprintf("relay %d", j), err)
			return r
		}
		r.leg(wire)
	}
	if err := ep.PatchEncap(wire, c.dst); err != nil {
		r.fail("final", err)
		return r
	}
	r.leg(wire)
	epDst.Local = c.dst
	from, inner, pl, err := epDst.DecapShared(wire, nil)
	if err != nil {
		r.fail("final decap", err)
		return r
	}
	r.arrive(from, inner, pl)
	return r
}

// TestTemplateChainMatchesSerializerChain is the byte-identity reference
// of core's send engine, one layer down: over randomized deliveries
// (headers with and without OptUnderlayDst, payloads from empty to
// overflowing the length fields, 0–8 bone hops, hop limits that run out
// mid-path) the emit-once-patch-in-place chain must produce the same wire
// bytes after every leg, the same arrival, the same counted encaps and
// decaps, the same span events and the same errors at the same stage as
// the chain that serializes and parses at every hop.
func TestTemplateChainMatchesSerializerChain(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 2005))
	v4 := func() addr.V4 { return addr.V4(rng.Uint32() | 1) }
	exhausted, overflowed := 0, 0
	const cases = 2000
	for i := 0; i < cases; i++ {
		c := chainCase{src: v4(), anycast: v4(), dst: v4(), tag: rng.Uint32()}
		for j, n := 0, 1+rng.IntN(9); j < n; j++ {
			c.hops = append(c.hops, v4())
		}
		c.hdr = packet.VNHeader{
			Version: 8,
			Src:     addr.SelfAddress(c.src),
			Dst:     addr.VN{Hi: rng.Uint64(), Lo: rng.Uint64()},
		}
		if rng.IntN(3) == 0 {
			// Small enough that long paths run out before their last leg.
			c.hdr.HopLimit = uint8(2 + rng.IntN(12))
		}
		if rng.IntN(2) == 0 {
			c.hdr.Dst = addr.SelfAddress(c.dst)
			under := binary.BigEndian.AppendUint32(nil, uint32(c.dst))
			c.hdr.Options = append(c.hdr.Options, packet.Option{Type: packet.OptUnderlayDst, Value: under})
		}
		c.hdr.Options = append(c.hdr.Options, packet.Option{
			Type: packet.OptTraceTag, Value: binary.BigEndian.AppendUint32(nil, c.tag),
		})
		switch rng.IntN(10) {
		case 0:
			c.payload = nil
		case 1:
			c.payload = []byte{}
		case 2:
			// Fits the VN length field, overflows the outer total length.
			c.payload = make([]byte, 0xFFFF-rng.IntN(40))
		case 3:
			c.payload = make([]byte, 0x10000+rng.IntN(40))
		default:
			c.payload = make([]byte, 1+rng.IntN(1500))
		}
		for k := range c.payload {
			c.payload[k] = byte(rng.Uint32())
		}

		want, got := serializerChain(c), templateChain(c)
		if want.failed != got.failed {
			t.Fatalf("case %d: errors diverge:\nserializer: %q\ntemplate:   %q", i, want.failed, got.failed)
		}
		if len(want.wires) != len(got.wires) {
			t.Fatalf("case %d: %d legs on the wire, serializer chain made %d", i, len(got.wires), len(want.wires))
		}
		for leg := range want.wires {
			if w, g := want.wires[leg], got.wires[leg]; !bytes.Equal(w, g) {
				// Both start with the 20-byte outer header, where legs differ.
				t.Fatalf("case %d leg %d: wire bytes diverge (%d vs %d bytes); outer headers:\nserializer: %x\ntemplate:   %x",
					i, leg, len(w), len(g), w[:min(len(w), packet.V4HeaderLen)], g[:min(len(g), packet.V4HeaderLen)])
			}
		}
		if want.from != got.from || !reflect.DeepEqual(want.inner, got.inner) || !bytes.Equal(want.payload, got.payload) {
			t.Fatalf("case %d: arrival diverges:\nserializer: %s %+v\ntemplate:   %s %+v",
				i, want.from, want.inner, got.from, got.inner)
		}
		if want.encaps != got.encaps || want.decaps != got.decaps {
			t.Fatalf("case %d: counters diverge: serializer %d encaps %d decaps, template %d/%d",
				i, want.encaps, want.decaps, got.encaps, got.decaps)
		}
		if !reflect.DeepEqual(want.events, got.events) {
			t.Fatalf("case %d: span events diverge:\nserializer: %+v\ntemplate:   %+v", i, want.events, got.events)
		}
		switch {
		case want.failed == "":
		case len(want.wires) == 0:
			overflowed++
		default:
			exhausted++
		}
	}
	// The generator must actually reach both failure families.
	if exhausted == 0 || overflowed == 0 {
		t.Fatalf("generator reached %d hop-limit exhaustions and %d overflows in %d cases", exhausted, overflowed, cases)
	}
}
