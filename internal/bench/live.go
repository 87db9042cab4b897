package bench

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/livebridge"
	"github.com/evolvable-net/evolve/internal/overlaynet"
	"github.com/evolvable-net/evolve/internal/packet"
)

const (
	liveFlows = 8
	// liveHops is the bone path length the workload's flows should have:
	// two relays between members, four socket hops end to end.
	liveHops = 2
	// liveDepth is how many packets phase B keeps in flight per flow
	// round; it fits a node's 256-slot inbox with room to spare.
	liveDepth = 32
	// liveTimeout bounds the wait for one delivery; loopback delivers in
	// tens of microseconds, so a packet this late is lost.
	liveTimeout = time.Second
	// stampLen is the payload prefix that carries the send time and the
	// sequence number.
	stampLen = 16
)

// liveFlow is one host pair of the live workload with what the
// simulator predicts for it.
type liveFlow struct {
	src, dst *overlaynet.Node
	dstVN    addr.VN
	// egress is the underlay address the last tunnel hop must come from:
	// the egress member Evolution.Send predicts.
	egress addr.V4
	vnHops int
}

// liveWorld is a provisioned overlay and its flows.
type liveWorld struct {
	w     *world
	o     *livebridge.Overlay
	flows []liveFlow
}

// buildLive builds the small internet, provisions one UDP socket per
// member and host on 127.0.0.1, and picks the host pairs.
func buildLive(seed int64, rec *Recorder, payload []byte) (*liveWorld, error) {
	w, err := buildWorld(seed, liveRecipe, rec)
	if err != nil {
		return nil, err
	}
	id := rec.Begin(0, "livebridge", "provision_ms")
	o, err := livebridge.Provision(w.evo)
	rec.End(id)
	if err != nil {
		return nil, err
	}
	lw := &liveWorld{w: w, o: o}
	for _, s := range w.net.Hosts {
		for _, d := range w.net.Hosts {
			if s.Domain == d.Domain {
				continue
			}
			del, err := w.evo.Send(s, d, payload)
			if err != nil {
				continue
			}
			lw.flows = append(lw.flows, liveFlow{
				src: o.Hosts[s.ID], dst: o.Hosts[d.ID], dstVN: del.DstVN,
				egress: w.net.Router(del.Egress.Member).Loopback, vnHops: del.VNHops,
			})
		}
	}
	// Prefer pairs whose predicted bone path has exactly liveHops hops:
	// the longest path differs from seed to seed in so small a world,
	// and latency follows the hop count, so taking the longest would
	// make runs at different seeds measure different things. Host pairs
	// were generated in (src, dst) order; a stable sort keeps that order
	// among equally good pairs.
	off := func(f liveFlow) int {
		if f.vnHops > liveHops {
			return f.vnHops - liveHops
		}
		return liveHops - f.vnHops
	}
	sort.SliceStable(lw.flows, func(i, j int) bool { return off(lw.flows[i]) < off(lw.flows[j]) })
	if len(lw.flows) < liveFlows {
		o.Close()
		return nil, fmt.Errorf("bench: only %d deliverable host pairs", len(lw.flows))
	}
	lw.flows = lw.flows[:liveFlows]
	return lw, nil
}

// stamp writes the send time and sequence number into the payload.
func stamp(p []byte, t0 time.Time, seq uint64) {
	binary.BigEndian.PutUint64(p[0:8], uint64(time.Since(t0)))
	binary.BigEndian.PutUint64(p[8:16], seq)
}

// liveChecker verifies one received packet against what was sent.
type liveChecker struct {
	t0       time.Time
	template []byte
}

// check returns the packet's one-way latency and whether it is the
// expected one: right body, a sequence number in [lo, hi), and the last
// hop the simulator predicts.
func (c *liveChecker) check(rcv overlaynet.Received, f *liveFlow, lo, hi uint64) (time.Duration, bool) {
	p := rcv.Payload
	if len(p) != len(c.template) || !bytes.Equal(p[stampLen:], c.template[stampLen:]) {
		return 0, false
	}
	seq := binary.BigEndian.Uint64(p[8:16])
	if seq < lo || seq >= hi || rcv.OuterSrc != f.egress || rcv.To != f.dstVN {
		return 0, false
	}
	return time.Since(c.t0) - time.Duration(binary.BigEndian.Uint64(p[0:8])), true
}

// liveUDP drives the real socket path: phase A keeps one packet in
// flight and measures its latency, phase B keeps liveDepth in flight per
// flow round and measures the rate. The first half of the windows is
// phase A, the rest phase B. Traffic crosses the loopback interface
// only, inside this one process.
func (r *run) liveUDP() error {
	template := payloadOf(r.rng(), smallPayload)
	setupRec := r.tr.Recorder(256)
	chk := &liveChecker{t0: time.Now(), template: template}

	var lw *liveWorld
	defer func() {
		if lw != nil {
			lw.o.Close()
		}
	}()
	scratch := append([]byte(nil), template...)
	var seq uint64
	anycast := func() addr.V4 { return lw.w.evo.AnycastAddr() }
	// one sends one packet on f and waits for it.
	one := func(f *liveFlow, rec *Recorder) (time.Duration, bool) {
		seq++
		parent := rec.Begin(0, "overlaynet", "delivery")
		stamp(scratch, chk.t0, seq)
		id := rec.Begin(parent, "overlaynet", "send_vn_us")
		err := f.src.SendVN(anycast(), f.dstVN, scratch)
		rec.End(id)
		if err != nil {
			rec.End(parent)
			return 0, false
		}
		id = rec.Begin(parent, "overlaynet", "inbox_wait_us")
		rcv, err := f.dst.WaitInbox(liveTimeout)
		rec.End(id)
		rec.End(parent)
		if err != nil {
			return 0, false
		}
		return chk.check(rcv, f, seq, seq+1)
	}

	for i := 0; i < r.builds(smallSetups); i++ {
		if lw != nil {
			lw.o.Close()
			lw = nil
		}
		err := r.freshBuild(func() (err error) {
			if lw, err = buildLive(r.o.Seed, setupRec, template); err != nil {
				return err
			}
			for j := range lw.flows {
				if _, ok := one(&lw.flows[j], nil); !ok {
					return fmt.Errorf("first delivery of flow %d failed", j)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	r.layerIfTraced("topology.bytes_per_domain", lw.w.genBytesPerDomain)

	rec := r.tr.Recorder(spanCap)
	lat := newSampler(latencyCap)
	next := 0
	phaseA := func(traced bool) generator {
		wrec := rec
		if !traced {
			wrec = nil
		}
		return func(stop *atomic.Bool, t *tally) {
			for !stop.Load() {
				f := &lw.flows[next%liveFlows]
				next++
				d, ok := one(f, wrec)
				t.attempted++
				if !ok {
					t.fail(1, nil)
					continue
				}
				t.delivered++
				if !traced {
					lat.add(d)
				}
			}
		}
	}
	phaseB := func(stop *atomic.Bool, t *tally) {
		for !stop.Load() {
			f := &lw.flows[next%liveFlows]
			next++
			lo := seq + 1
			sent := 0
			for k := 0; k < liveDepth; k++ {
				seq++
				stamp(scratch, chk.t0, seq)
				t.attempted++
				if err := f.src.SendVN(anycast(), f.dstVN, scratch); err != nil {
					t.fail(1, err)
					continue
				}
				sent++
			}
			for k := 0; k < sent; k++ {
				rcv, err := f.dst.WaitInbox(liveTimeout)
				if err != nil {
					// Whatever is still missing is lost; do not wait a
					// timeout for each of them.
					t.fail(uint64(sent-k), err)
					break
				}
				if _, ok := chk.check(rcv, f, lo, seq+1); !ok {
					t.fail(1, nil)
					continue
				}
				t.delivered++
			}
		}
	}

	aWindows := r.o.Windows / 2
	if aWindows < 1 {
		aWindows = 1
	}
	var aWins, bWins []window
	for i := 0; i < aWindows; i++ {
		aWins = append(aWins, r.measure(r.traced(i), phaseA(r.traced(i))))
	}
	for i := aWindows; i < r.o.Windows || len(bWins) == 0; i++ {
		bWins = append(bWins, r.measure(false, phaseB))
	}
	// Every WaitInbox leaves a timer behind that the runtime holds until
	// it fires, liveTimeout later: a second's worth of them, as many as
	// the last windows happened to deliver, is not what the overlay
	// retains.
	time.Sleep(liveTimeout + 50*time.Millisecond)
	r.liveHeap(lw)
	l := SummarizeLatency(lat.us)
	r.set("latency_us_p50", Value{Value: l.P50, N: l.N})
	r.set("latency_us_p99", Value{Value: l.P99, N: l.N, Tail: l.Tail, TailPct: l.TailPct})
	r.rates(bWins)
	if !r.o.Trace {
		return nil
	}
	r.overhead(aWins)
	return r.liveProbes(lw, template)
}

// liveProbes files the overlay's counters and times the calls only the
// socket path makes.
func (r *run) liveProbes(lw *liveWorld, template []byte) error {
	rec := r.tr.Recorder(1024)

	// The seed counts a relay after the datagram has left, so the
	// counters trail the deliveries; read them once they stop moving.
	var relays, dropped, delivered uint64
	read := func() (rel, drop, del uint64) {
		for _, n := range lw.o.Members {
			s := n.Stats()
			rel += s.Forwarded + s.Exited
			drop += s.Dropped
		}
		for _, n := range lw.o.Hosts {
			s := n.Stats()
			del += s.Delivered
			drop += s.Dropped
		}
		return
	}
	for i := 0; i < 100; i++ {
		rel, drop, del := read()
		if i > 0 && rel == relays && drop == dropped && del == delivered {
			break
		}
		relays, dropped, delivered = rel, drop, del
		time.Sleep(10 * time.Millisecond)
	}
	r.layer("overlaynet.forwards_per_delivered", ratio(relays, delivered), int(delivered))
	r.layer("overlaynet.dropped", float64(dropped), int(delivered))
	if dropped > 0 {
		r.chk.failf("overlay nodes dropped %d packets", dropped)
	}

	var reconcileErr error
	probe(rec, "livebridge", "reconcile_noop_us", 16, 1, func(int) {
		if err := lw.o.Reconcile(); err != nil {
			reconcileErr = err
		}
	})
	if reconcileErr != nil {
		return fmt.Errorf("probe reconcile: %w", reconcileErr)
	}

	// One socket hop between two bare nodes: what a delivery costs with
	// no relay in between.
	reg := overlaynet.NewRegistry()
	a, err := overlaynet.NewNode(reg, addr.V4(0x0a000001))
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := overlaynet.NewNode(reg, addr.V4(0x0a000002))
	if err != nil {
		return err
	}
	defer b.Close()
	bVN := addr.SelfAddress(b.Underlay)
	b.SetVNAddr(bVN)
	var hopErr error
	probe(rec, "overlaynet", "one_hop_us", 512, 1, func(int) {
		if err := a.SendVN(b.Underlay, bVN, template); err != nil {
			hopErr = err
			return
		}
		if _, err := b.WaitInbox(liveTimeout); err != nil {
			hopErr = err
		}
	})
	if hopErr != nil {
		return fmt.Errorf("probe one hop: %w", hopErr)
	}
	relaysPerFlow := 0.0
	for _, f := range lw.flows {
		// Host to ingress, the bone hops, egress to host: one more socket
		// hop than a direct delivery for each relay on the way.
		relaysPerFlow += float64(f.vnHops + 1)
	}
	relaysPerFlow /= float64(len(lw.flows))
	prev := r.post
	r.post = func(by map[string][]float64) {
		if prev != nil {
			prev(by)
		}
		flowNS, hopNS := Median(by["overlaynet.delivery"]), Median(by["overlaynet.one_hop_us"])
		r.layer("overlaynet.per_relay_us", (flowNS-hopNS)/relaysPerFlow/1e3, len(by["overlaynet.delivery"]))
	}

	// The allocating serialize and decode the overlay runs per datagram.
	f := lw.flows[0]
	hdr := packet.VNHeader{Version: 8, Src: f.src.VNAddr(), Dst: f.dstVN}
	if u, ok := f.dstVN.Underlay(); ok {
		hdr = hdr.WithUnderlayDst(u)
	}
	outer := packet.V4Header{Proto: packet.ProtoVNEncap, Src: f.src.Underlay, Dst: lw.w.evo.AnycastAddr()}
	var wire []byte
	probe(rec, "packet", "serialize_alloc_ns", 16, 256, func(int) {
		buf := packet.NewSerializeBuffer()
		_ = packet.Serialize(buf, template, &outer, &hdr)
		wire = buf.Bytes()
	})
	probe(rec, "packet", "decode_vn_ns", 16, 256, func(int) {
		if _, rest, err := packet.DecodeV4(wire); err == nil {
			_, _, _ = packet.DecodeVN(rest)
		}
	})
	return nil
}
