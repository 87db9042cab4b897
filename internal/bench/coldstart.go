package bench

import (
	"bytes"
	"fmt"
	"time"

	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/vnbone"
)

// coldStartFlows is how many distinct flows a fresh world delivers
// before it counts as started.
const coldStartFlows = 1000

// coldStart builds a fleet-scale internet from nothing and delivers its
// first flows, on several fresh worlds. Set-up is the product here, so
// nothing is warmed: the first flows pay lazy per-prefix BGP
// convergence. One world takes about eight seconds, so the window count
// buys worlds: one per five windows, three at most.
func (r *run) coldStart() error {
	small := payloadOf(r.rng(), smallPayload)
	r.res.Generators = 1
	rec := r.tr.Recorder(1 << 14)
	worlds := r.o.Windows / 5
	if worlds < 1 {
		worlds = 1
	}
	if worlds > 3 {
		worlds = 3
	}
	if r.o.Trace && worlds < 2 {
		// One untraced world and one traced: the overhead needs both.
		worlds = 2
	}
	worlds = r.builds(worlds)
	// firsts are the worlds' totals; best[i] is flow i's fastest delivery
	// over the worlds. The worlds are the same world, so flow i does the
	// same work in each.
	var firsts []float64
	best := make([]time.Duration, coldStartFlows)

	var w *world
	var flows []flow
	for i := 0; i < worlds; i++ {
		w, flows = nil, nil
		win := window{traced: r.traced(i)}
		// Set-up here is the build alone; the first flows are their own
		// metric and are timed after it.
		err := r.freshBuild(func() (err error) {
			w, err = buildWorld(r.o.Seed, coldStartRecipe, rec)
			return err
		})
		if err != nil {
			return err
		}
		flows = newPairStream(w.net, r.rng()).take(coldStartFlows)
		flowRec := rec
		if !win.traced {
			flowRec = nil
		}
		start := time.Now()
		last := start
		for j, f := range flows {
			id := flowRec.Begin(0, "core", "first_flow_send")
			d, err := w.evo.Send(f.src, f.dst, small)
			flowRec.End(id)
			now := time.Now()
			if took := now.Sub(last); i == 0 || took < best[j] {
				best[j] = took
			}
			last = now
			win.attempted++
			if err != nil || !bytes.Equal(d.Payload, small) {
				win.fail(1, err)
				continue
			}
			win.delivered++
		}
		win.elapsed = time.Since(start)
		firsts = append(firsts, win.elapsed.Seconds())
		r.wins = append(r.wins, win)
		r.checkSnapshot(w.evo.Snapshot())
	}
	r.liveHeap(w)
	r.set("first_flows_s", distValue(Summarize(firsts)))
	// The worlds' totals follow the machine's disturbances, which only
	// ever add time, and a flow's delivery here takes milliseconds, too
	// long to dodge them. The rate the first flows are delivered at is
	// therefore taken from each flow's fastest delivery over the worlds;
	// what does not hit the same flow in every world, the collector's
	// work too, is not in it but in Whole, the rate of the median world.
	var sum time.Duration
	for _, d := range best {
		sum += d
	}
	r.set("delivered_pps", Value{Value: coldStartFlows / sum.Seconds(), Whole: coldStartFlows / Median(firsts), N: len(firsts)})
	if !r.o.Trace {
		return nil
	}
	r.overhead(r.wins)
	r.layer("topology.bytes_per_domain", w.genBytesPerDomain, 1)

	// A first-touched prefix: Lookup toward a host of a domain that no
	// flow has named yet has to converge that domain's prefix first.
	touched := map[topology.ASN]bool{}
	for _, f := range flows {
		touched[f.src.Domain], touched[f.dst.Domain] = true, true
	}
	from := w.net.Hosts[0].Domain
	for n, i := 0, len(w.net.Hosts)-1; n < 16 && i >= 0; i -= coldStartRecipe.hosts {
		h := w.net.Hosts[i]
		if touched[h.Domain] {
			continue
		}
		touched[h.Domain] = true
		id := rec.Begin(0, "bgp", "lookup_cold_ms")
		w.evo.BGP.Lookup(from, h.Addr)
		rec.End(id)
		n++
	}
	var buildErr error
	probe(rec, "vnbone", "build_ms", 5, 1, func(int) {
		if _, err := vnbone.Build(w.evo.Anycast, w.evo.IGP, w.evo.Dep.Clone(), w.evo.Config().Bone); err != nil {
			buildErr = err
		}
	})
	if buildErr != nil {
		return fmt.Errorf("probe bone build: %w", buildErr)
	}
	return nil
}
