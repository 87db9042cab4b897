package bench

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/core"
	"github.com/evolvable-net/evolve/internal/trace"
)

const (
	// fleetSenders is the number of sender goroutines of fleet_warm and
	// fleet_burst. One, not Generators(): with two saturating senders on
	// the two vCPUs of the sandbox, the medians of eight runs had an
	// interquartile spread of 21 %, against 10 % with one sender and 7 %
	// for single-sender fleet_cold in the same minutes. What two busy
	// vCPUs get depends on where the host puts them, and a bound has to
	// stay above that. The rates are therefore per core.
	fleetSenders = 1
	fleetFlows   = 1024
	smallPayload = 64
	largePayload = 1400
	burstSize    = 64
	// A slice (see tally.slice) is warmSlice sends of fleet_warm, about
	// 80 microseconds, burstSlice bursts of fleet_burst, about 60, and
	// coldSlice sends of fleet_cold, about 150.
	warmSlice  = 128
	burstSlice = 4
	coldSlice  = 16
	// coldRetained is how many flows fleet_cold's cache holds when the
	// retained heap is read: about half a window's worth.
	coldRetained = 50000
	// sampleEvery is the sampling rate of spans on sub-microsecond
	// paths, shadowEvery that of the shadow replay, and
	// sampleSlow that of spans on calls of ten microseconds and more,
	// which would otherwise outgrow the span buffer.
	sampleEvery = 64
	shadowEvery = 4096
	sampleSlow  = 8
	// latencyCap bounds the pooled per-operation samples of a workload;
	// the busiest, live_udp's phase A, takes about 150 000 in a run.
	latencyCap = 1 << 18
	// spanCap bounds the spans of one generator goroutine.
	spanCap = 1 << 17
)

// payloadOf returns a seeded payload of n bytes.
func payloadOf(rng *rand.Rand, n int) []byte {
	p := make([]byte, n)
	rng.Read(p)
	return p
}

// fleet runs fleet_warm, fleet_burst or fleet_cold: the same 400-domain
// world, used three ways.
func (r *run) fleet(kind string) error {
	rng := r.rng()
	small, large := payloadOf(rng, smallPayload), payloadOf(rng, largePayload)
	setupRec := r.tr.Recorder(64)

	var (
		w      *world
		flows  []flow
		expect []addr.VN
		pairs  *pairStream
	)
	for i := 0; i < r.builds(fleetSetups); i++ {
		w, flows, expect, pairs = nil, nil, nil, nil
		err := r.freshBuild(func() (err error) {
			if kind == FleetCold {
				w, pairs, err = buildCold(r.o.Seed, setupRec, small)
				return err
			}
			if w, err = buildWorld(r.o.Seed, fleetRecipe, setupRec); err != nil {
				return err
			}
			flows = stridedFlows(w.net, fleetFlows)
			expect = make([]addr.VN, len(flows))
			for i, f := range flows {
				d, err := w.evo.Send(f.src, f.dst, small)
				if err != nil {
					return fmt.Errorf("warm flow %d: %w", i, err)
				}
				expect[i] = d.DstVN
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	r.layerIfTraced("topology.bytes_per_domain", w.genBytesPerDomain)
	before := w.evo.Snapshot()

	switch kind {
	case FleetWarm:
		r.fleetWarm(w, flows, expect, small, large)
	case FleetBurst:
		r.fleetBurst(w, flows, expect, small)
	case FleetCold:
		r.fleetCold(w, pairs, small)
	}

	r.liveHeap(w)
	r.checkSnapshot(w.evo.Snapshot().Sub(before))
	if r.o.Trace {
		r.fleetProbes(kind, w, flows, small, large)
	}
	return nil
}

// buildCold is fleet_cold's set-up: the fleet, one send from every host,
// which fills the redirect cache and converges every BGP prefix the
// workload will touch, and the stream of pairs to send on. The stream
// is a function of the seed alone, whatever was built before.
func buildCold(seed int64, rec *Recorder, payload []byte) (*world, *pairStream, error) {
	w, err := buildWorld(seed, fleetRecipe, rec)
	if err != nil {
		return nil, nil, err
	}
	n := len(w.net.Hosts)
	for i, h := range w.net.Hosts {
		if _, err := w.evo.Send(h, w.net.Hosts[(i+n/2)%n], payload); err != nil {
			return nil, nil, fmt.Errorf("pre-touch %s: %w", h.Name, err)
		}
	}
	return w, newPairStream(w.net, rand.New(rand.NewSource(seed))), nil
}

// checkSnapshot applies the counter invariant every in-process workload
// must keep, and files the counter-derived per-layer ratios.
func (r *run) checkSnapshot(d trace.Snapshot) {
	if d.Sends != d.Deliveries+d.Drops {
		r.chk.failf("snapshot: sends %d != deliveries %d + drops %d", d.Sends, d.Deliveries, d.Drops)
	}
	if !r.o.Trace || d.Sends == 0 {
		return
	}
	r.layer("core.flow_hit_ratio", ratio(d.DeliveryFlowHits, d.DeliveryFlowHits+d.DeliveryFlowMisses), int(d.Sends))
	r.layer("core.redirect_hit_ratio", ratio(d.RedirectCacheHits, d.Redirects), int(d.Redirects))
	r.layer("tunnel.ops_per_delivery", ratio(d.Encaps+d.Decaps, d.Deliveries), int(d.Deliveries))
	if d.DeliveryBatchFlows > 0 {
		r.layer("core.batch_pkts_per_flow", ratio(d.DeliveryBatchPackets, d.DeliveryBatchFlows), int(d.DeliveryBatchFlows))
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerIfTraced files a per-layer metric when the pass is traced.
func (r *run) layerIfTraced(name string, v float64) {
	if r.o.Trace {
		r.layer(name, v, 1)
	}
}

// sender is one generator goroutine's position in the flow list and its
// measuring gear; it persists across windows.
type sender struct {
	next, count int
	rec         *Recorder
	shadow      *shadow
}

// senders makes the workload's generator goroutines, each starting at
// its own offset into the flow list.
func (r *run) senders(n, flows int) []*sender {
	out := make([]*sender, n)
	for i := range out {
		out[i] = &sender{next: i * flows / n, rec: r.tr.Recorder(spanCap)}
	}
	return out
}

// fleetWarm loops Evolution.Send over the warmed flows: two windows at
// 64 B, then one at 1400 B, and so on.
func (r *run) fleetWarm(w *world, flows []flow, expect []addr.VN, small, large []byte) {
	ss := r.senders(fleetSenders, len(flows))
	for _, s := range ss {
		s.shadow = newShadow(w, r.spanCost)
	}
	gen := func(s *sender, payload []byte, traced bool) generator {
		return func(stop *atomic.Bool, t *tally) {
			rec := s.rec
			if !traced {
				rec = nil
			} else {
				// Every traced window shadows at least one delivery.
				s.shadow.replay(rec, flows[s.next], payload)
			}
			for !stop.Load() {
				if s.count%warmSlice == 0 {
					t.slice(s.next)
				}
				for k := 0; k < 16; k++ {
					i := s.next
					if s.next++; s.next == len(flows) {
						s.next = 0
					}
					f := flows[i]
					s.count++
					var id uint32
					if traced && s.count%sampleEvery == 0 {
						id = rec.Begin(0, "core", "send_ns")
					}
					d, err := w.evo.Send(f.src, f.dst, payload)
					rec.End(id)
					t.attempted++
					if err != nil || !bytes.Equal(d.Payload, payload) || d.DstVN != expect[i] {
						t.fail(1, err)
						continue
					}
					t.delivered++
					if traced && s.count%shadowEvery == 0 {
						s.shadow.replay(rec, f, payload)
					}
				}
			}
		}
	}
	// Every third window carries 1400 B, so that both payload sizes see
	// the same stretch of machine weather.
	var smallWins, largeWins []window
	for i := 0; i < r.o.Windows; i++ {
		payload, traced := small, r.traced(len(smallWins))
		if i%3 == 2 || (i == r.o.Windows-1 && len(largeWins) == 0) {
			payload, traced = large, false
		}
		gens := make([]generator, len(ss))
		for j, s := range ss {
			gens[j] = gen(s, payload, traced)
		}
		win := r.measure(traced, gens...)
		if len(payload) == largePayload {
			largeWins = append(largeWins, win)
		} else {
			smallWins = append(smallWins, win)
		}
	}
	var goodput []float64
	for _, lw := range largeWins {
		goodput = append(goodput, lw.pps()*largePayload/1e6)
	}
	r.set("goodput_mb_per_sec", distValue(Summarize(goodput)))
	r.rates(smallWins)
	r.overhead(smallWins)
	if r.o.Trace {
		r.post = func(by map[string][]float64) {
			var sum float64
			var n int
			for _, s := range ss {
				sum += s.shadow.sum
				n += s.shadow.n
			}
			if n == 0 {
				return
			}
			r.res.ShadowSumNS = sum / float64(n)
			r.layer("core.unattributed_ns", Median(by["core.send_ns"])-r.res.ShadowSumNS, n)
		}
	}
}

// fleetBurst loops AppendSendBurst with 64 payloads of 64 B.
func (r *run) fleetBurst(w *world, flows []flow, expect []addr.VN, small []byte) {
	ss := r.senders(fleetSenders, len(flows))
	payloads := make([][]byte, burstSize)
	for i := range payloads {
		payloads[i] = small
	}
	gen := func(s *sender, traced bool) generator {
		out := make([]core.Delivery, 0, burstSize)
		return func(stop *atomic.Bool, t *tally) {
			for !stop.Load() {
				if s.count%burstSlice == 0 {
					t.slice(s.next)
				}
				i := s.next
				if s.next++; s.next == len(flows) {
					s.next = 0
				}
				f := flows[i]
				s.count++
				var id uint32
				if traced && s.count%sampleSlow == 0 {
					id = s.rec.BeginOps(0, "core", "burst_ns_per_pkt", burstSize)
				}
				var err error
				out, err = w.evo.AppendSendBurst(out[:0], f.src, f.dst, payloads)
				s.rec.End(id)
				t.attempted += burstSize
				if err != nil {
					t.fail(burstSize, err)
					continue
				}
				for _, d := range out {
					if !bytes.Equal(d.Payload, small) || d.DstVN != expect[i] {
						t.fail(1, nil)
						continue
					}
					t.delivered++
				}
				if short := burstSize - len(out); short > 0 {
					t.fail(uint64(short), nil)
				}
			}
		}
	}
	for i := 0; i < r.o.Windows; i++ {
		gens := make([]generator, len(ss))
		for j, s := range ss {
			gens[j] = gen(s, r.traced(i))
		}
		r.measure(r.traced(i), gens...)
	}
	r.rates(r.wins)
	r.overhead(r.wins)
}

// fleetCold sends every packet on a pair never seen before. Between
// windows a registration of nobody publishes a routing-neutral epoch:
// the next window starts with an empty flow cache and a full redirect
// cache.
func (r *run) fleetCold(w *world, pairs *pairStream, small []byte) {
	s := r.senders(1, 1)[0]
	gen := func(traced bool) generator {
		return func(stop *atomic.Bool, t *tally) {
			for !stop.Load() {
				if s.count%coldSlice == 0 {
					t.slice(0)
				}
				f := pairs.next()
				s.count++
				var id uint32
				if traced && s.count%sampleSlow == 0 {
					id = s.rec.Begin(0, "core", "send_miss_us")
				}
				d, err := w.evo.Send(f.src, f.dst, small)
				s.rec.End(id)
				t.attempted++
				if err != nil || !bytes.Equal(d.Payload, small) {
					t.fail(1, err)
					continue
				}
				t.delivered++
			}
		}
	}
	for i := 0; i < r.o.Windows; i++ {
		if err := w.evo.RegisterEndhosts(nil); err != nil {
			r.chk.failf("neutral epoch: %v", err)
		}
		before := w.evo.Snapshot()
		win := r.measure(r.traced(i), gen(r.traced(i)))
		d := w.evo.Snapshot().Sub(before)
		if d.DeliveryFlowMisses != win.attempted || d.DeliveryFlowHits != 0 {
			r.chk.failf("window %d: %d sends but %d flow misses and %d hits", i, win.attempted, d.DeliveryFlowMisses, d.DeliveryFlowHits)
		}
		if hit := ratio(d.RedirectCacheHits, d.Redirects); hit < 0.99 {
			r.chk.failf("window %d: redirect hit ratio %.4f < 0.99", i, hit)
		}
	}
	r.rates(r.wins)
	r.overhead(r.wins)

	// What the flow cache holds when the last window ends follows that
	// window's rate; what the process retains is read with coldRetained
	// flows in the cache.
	if err := w.evo.RegisterEndhosts(nil); err != nil {
		r.chk.failf("neutral epoch: %v", err)
	}
	for i := 0; i < coldRetained; i++ {
		f := pairs.next()
		if d, err := w.evo.Send(f.src, f.dst, small); err != nil || !bytes.Equal(d.Payload, small) {
			r.chk.failf("send %d after the windows: wrong delivery or %v", i, err)
			break
		}
	}
}
