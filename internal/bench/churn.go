package bench

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/routing/bgpvn"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/vnbone"
)

const (
	churnFlows = 256
	// churnRounds rounds of four event kinds, each a failure and its
	// repair, make the schedule the mutator replays in a loop.
	churnRounds = 16
)

// eventSpanNames names each event kind's span after its metric.
var eventSpanNames = [numEventKinds]string{"event_ms.intra_link", "event_ms.inter_link", "event_ms.router_toggle", "event_ms.host_toggle"}

// churn runs routing events beside reads: one mutator goroutine replays
// the seeded schedule, each call timed, while one reader goroutine loops
// Send over flows the schedule never disconnects.
func (r *run) churn() error {
	small := payloadOf(r.rng(), smallPayload)
	setupRec := r.tr.Recorder(64)

	var w, twin *world
	var schedule []event
	var flows []flow
	for i := 0; i < r.builds(smallSetups); i++ {
		// The build before the last is kept as the twin world of the
		// dry run: same seed, so the same world.
		twin, w = w, nil
		err := r.freshBuild(func() (err error) {
			if w, err = buildWorld(r.o.Seed, churnRecipe, setupRec); err != nil {
				return err
			}
			if schedule, err = churnSchedule(w, r.rng(), churnRounds); err != nil {
				return err
			}
			flows = readerFlows(w.net, schedule, churnFlows)
			for i, f := range flows {
				if _, err := w.evo.Send(f.src, f.dst, small); err != nil {
					return fmt.Errorf("warm flow %d: %w", i, err)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if twin == nil {
		var err error
		if twin, err = buildWorld(r.o.Seed, churnRecipe, nil); err != nil {
			return err
		}
	}
	r.layerIfTraced("topology.bytes_per_domain", w.genBytesPerDomain)
	if err := dryRun(twin, schedule, readerFlows(twin.net, schedule, churnFlows), small); err != nil {
		return err
	}
	twin = nil

	// gen counts published events; the reader uses it to tell a flow's
	// first send after an epoch change from the ones that hit the cache.
	var gen atomic.Uint64
	events := newSampler(latencyCap)
	eventRec, readRec := r.tr.Recorder(spanCap), r.tr.Recorder(spanCap)
	seen := make([]uint64, len(flows))
	next, step := 0, 0

	mutator := func(traced bool) generator {
		return func(stop *atomic.Bool, _ *tally) {
			for !stop.Load() {
				ev := schedule[step%len(schedule)]
				step++
				var id uint32
				if traced {
					id = eventRec.Begin(0, "core", eventSpanNames[ev.kind])
				}
				t0 := time.Now()
				ev.apply(w)
				events.add(time.Since(t0))
				eventRec.End(id)
				gen.Add(1)
			}
		}
	}
	reader := func(traced bool) generator {
		return func(stop *atomic.Bool, t *tally) {
			for !stop.Load() {
				i := next
				if next++; next == len(flows) {
					next = 0
				}
				f := flows[i]
				g := gen.Load()
				post := traced && seen[i] != g
				seen[i] = g
				var id uint32
				if post {
					id = readRec.Begin(0, "core", "post_event_send_us")
				}
				d, err := w.evo.Send(f.src, f.dst, small)
				readRec.End(id)
				t.attempted++
				if err != nil || !bytes.Equal(d.Payload, small) {
					t.fail(1, err)
					continue
				}
				t.delivered++
			}
		}
	}

	before, dijBefore := w.evo.Snapshot(), w.evo.IGP.DijkstraRuns()
	var perSec []float64
	for i := 0; i < r.o.Windows; i++ {
		stepBefore := step
		win := r.measure(r.traced(i), mutator(r.traced(i)), reader(r.traced(i)))
		perSec = append(perSec, float64(step-stepBefore)/win.elapsed.Seconds())
	}
	d := w.evo.Snapshot().Sub(before)
	dijkstras := w.evo.IGP.DijkstraRuns() - dijBefore
	// What the world retains differs from one event of the schedule to
	// the next: the retained heap is read where the schedule ends, with
	// every failure repaired.
	for at := step; at%len(schedule) != 0; at++ {
		schedule[at%len(schedule)].apply(w)
	}
	r.liveHeap(w)
	r.checkSnapshot(d)

	r.rates(r.wins)
	r.set("events_per_sec", distValue(Summarize(perSec)))
	l := SummarizeLatency(events.us)
	r.set("event_ms_p50", Value{Value: l.P50 / 1e3, N: l.N})
	r.set("event_ms_p99", Value{Value: l.P99 / 1e3, N: l.N, Tail: l.Tail / 1e3, TailPct: l.TailPct})
	if !r.o.Trace {
		return nil
	}
	r.overhead(r.wins)
	n := float64(step)
	r.layer("core.epochs_per_event", float64(d.Epochs)/n, step)
	r.layer("underlay.dijkstras_per_event", float64(dijkstras)/n, step)
	r.layer("vnbone.domains_rebuilt_per_event", float64(d.BoneDomainsRebuilt)/n, step)
	r.layer("vnbone.domains_reused_per_event", float64(d.BoneDomainsReused)/n, step)
	return r.churnProbes(w)
}

// dryRun replays the schedule once on the twin world and sends every
// reader flow after every event: the proof that the schedule never
// disconnects the reader set.
func dryRun(twin *world, schedule []event, flows []flow, payload []byte) error {
	for i, ev := range schedule {
		ev.apply(twin)
		for j, f := range flows {
			if _, err := twin.evo.Send(f.src, f.dst, payload); err != nil {
				return fmt.Errorf("dry run: flow %d undeliverable after event %d (%s): %w", j, i, ev, err)
			}
		}
	}
	return nil
}

// churnProbes times, on the churn world, the public calls an epoch
// build makes.
func (r *run) churnProbes(w *world) error {
	rec := r.tr.Recorder(1024)
	evo, net := w.evo, w.net
	const spans = 16

	probe(rec, "anycast", "clone_us", spans, 16, func(int) { evo.Dep.Clone() })

	bone, err := evo.Bone()
	if err != nil {
		return err
	}
	// One /128 per registered host, advertised by the domain its
	// anycast resolution lands in: what core re-applies on every epoch.
	type advert struct {
		p   addr.VNPrefix
		asn topology.ASN
	}
	adverts := make([]advert, 0, len(net.Hosts))
	for _, h := range net.Hosts {
		v, err := evo.HostVNAddr(h)
		if err != nil {
			return err
		}
		if !v.IsSelf() {
			continue
		}
		res, err := evo.Anycast.ResolveFromHost(h, evo.AnycastAddr())
		if err != nil {
			continue
		}
		adverts = append(adverts, advert{addr.HostVNPrefix(v), net.DomainOf(res.Member)})
	}
	probe(rec, "bgpvn", "new_ms", spans, 1, func(int) {
		vn := bgpvn.New(bone, evo.Fwd, net)
		for _, a := range adverts {
			vn.AdvertiseNative(a.p, a.asn)
		}
	})

	routers := net.Domain(w.deployed[len(w.deployed)-1]).Routers
	probe(rec, "underlay", "intra_path_us", spans, 64, func(i int) {
		evo.IGP.IntraPath(routers[i%len(routers)], routers[(i+1)%len(routers)])
	})

	dirty := map[topology.ASN]bool{w.deployed[len(w.deployed)-1]: true}
	var buildErr error
	probe(rec, "vnbone", "build_incremental_ms", spans, 1, func(int) {
		if _, _, err := vnbone.BuildIncremental(evo.Anycast, evo.IGP, evo.Dep.Clone(), evo.Config().Bone, bone, dirty); err != nil {
			buildErr = err
		}
	})
	return buildErr
}
