package experiments

import (
	"fmt"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/metrics"
	"github.com/evolvable-net/evolve/internal/netsim"
	"github.com/evolvable-net/evolve/internal/routing/bgp"
	"github.com/evolvable-net/evolve/internal/topology"
)

// AnycastFailoverDynamics is E18: the paper calls anycast redirection
// "seamless", which is true at the fixpoint; this experiment quantifies
// the gap with the event-driven BGP sessions, in simulated time. Per
// internet size it reports four phases:
//
//   - cold start: quiescence time and message cost of establishing every
//     session and propagating every aggregate;
//   - leaf origination: an anycast origination at a leaf, with the
//     per-AS time to first route observed on the loc-RIBs;
//   - leaf withdrawal: the hub originates too, then the leaf withdraws;
//     the black-hole window is, per AS homed on the leaf, how long it
//     keeps forwarding toward the withdrawn origin before re-homing;
//   - hub-link flaps: on a fresh internet, one flap shorter than the
//     hold timer (sequence-gap resync) and one longer (hold expiry) on
//     two of the hub's links, with an origination withdrawn inside the
//     short flap's blind window; the loc-RIBs must match the bgp.System
//     fixpoint at quiescence and nobody may still hold the withdrawn
//     prefix.
func AnycastFailoverDynamics(seed int64) (*Table, error) {
	t := &Table{
		ID:    "E18",
		Title: "anycast failover convergence (event-driven BGP)",
		Claim: "after an origin withdraws, every AS re-homes to the surviving origin within a bounded black-hole window and for far fewer updates than cold start; link flaps, lost withdrawals included, recover to the batch fixpoint",
		Columns: []string{
			"internet", "phase", "sim time", "updates",
			"per-AS window (min / mean / max)", "ASes", "stale", "detail",
		},
	}
	okAll := true
	for _, nAS := range []int{10, 20, 40} {
		ok, err := failoverPhases(t, nAS, seed)
		if err != nil {
			return nil, err
		}
		okAll = okAll && ok
	}
	if okAll {
		t.pass("every AS learned the route and re-homed to the surviving origin with no stale route; withdrawal cost stayed below cold start; flaps recovered to the fixpoint")
	} else {
		t.fail("a phase did not quiesce, a withdrawal left stale or missing anycast routes or cost more than cold start, or a flap diverged from the fixpoint")
	}
	return t, nil
}

// sessionWorld is one Barabási–Albert internet under event-driven BGP
// sessions, run to cold-start quiescence.
type sessionWorld struct {
	net *topology.Network
	eng *netsim.Engine
	fab *netsim.Fabric
	ss  *bgp.SessionSystem
	// quiet is when the cold start went quiet; converged is false when
	// it never did.
	quiet     netsim.Time
	converged bool
}

func coldSessionWorld(nAS int, seed int64) (*sessionWorld, error) {
	net, err := topology.BarabasiAlbert(nAS, 2, topology.GenConfig{
		Seed: seed, RoutersPerDomain: 1,
	})
	if err != nil {
		return nil, err
	}
	w := &sessionWorld{net: net, eng: netsim.NewEngine()}
	w.fab = netsim.NewFabric(w.eng)
	w.ss = bgp.NewSessionSystem(net, w.fab)
	w.quiet, w.converged = w.ss.RunToConvergence(0)
	return w, nil
}

// windows summarises per-AS event times as windows since t0, in
// simulated microseconds.
func windows(at map[topology.ASN]netsim.Time, t0 netsim.Time) metrics.Summary {
	ds := make([]float64, 0, len(at))
	for _, t := range at {
		ds = append(ds, float64(t-t0))
	}
	return metrics.Summarize(ds)
}

// simMS renders simulated microseconds the way netsim.Time prints.
func simMS(us float64) string { return fmt.Sprintf("%.3fms", us/1000) }

// failoverPhases runs E18's four phases at one internet size and adds
// their rows to t.
func failoverPhases(t *Table, nAS int, seed int64) (ok bool, err error) {
	ok = true
	internet := fmt.Sprintf("%d AS", nAS)
	row := func(phase string, simTime netsim.Time, updates uint64, window, ases, stale, detail string) {
		t.AddRow(internet, phase, simTime.String(),
			fmt.Sprintf("%d", updates), window, ases, stale, detail)
	}

	w, err := coldSessionWorld(nAS, seed)
	if err != nil {
		return false, err
	}
	ok = ok && w.converged
	cold := w.ss.Totals()
	row("cold start", w.quiet, cold.Updates, "-", "-", "-",
		fmt.Sprintf("%d sessions up, %d keepalives", cold.Establishes, cold.Keepalives))

	// Leaf origination: per-AS time to first route.
	a, err := addr.Option1Address(0)
	if err != nil {
		return false, err
	}
	hp := addr.HostPrefix(a)
	asns := w.net.ASNs()
	hub, leaf := asns[0], asns[len(asns)-1]
	firstRoute := map[topology.ASN]netsim.Time{}
	for _, asn := range asns {
		asn := asn
		w.ss.Speakers[asn].OnLocChange = func(p addr.Prefix, _ bgp.Route, have bool) {
			if _, seen := firstRoute[asn]; p == hp && have && !seen {
				firstRoute[asn] = w.eng.Now()
			}
		}
	}
	t0 := w.eng.Now()
	w.ss.Speakers[leaf].Originate(hp)
	quiet, converged := w.ss.RunToConvergence(0)
	ok = ok && converged && len(firstRoute) == nAS
	fr := windows(firstRoute, t0)
	row("leaf origination", quiet-t0, w.ss.Totals().Updates-cold.Updates,
		fmt.Sprintf("%s / %s / %s", simMS(fr.Min), simMS(fr.Mean), simMS(fr.Max)),
		fmt.Sprintf("%d/%d reached", len(firstRoute), nAS), "-", "time to first route")

	// Leaf withdrawal: a second origin (the hub) settles, then the leaf's
	// ISP un-deploys. Every AS homed on the leaf is watched until it stops
	// forwarding toward the withdrawn origin.
	w.ss.Speakers[hub].Originate(hp)
	if _, converged := w.ss.RunToConvergence(0); !converged {
		ok = false
	}
	origin := func(holder topology.ASN, r bgp.Route) topology.ASN {
		if o := r.Origin(); o != -1 {
			return o
		}
		return holder
	}
	stale := map[topology.ASN]bool{}
	for _, asn := range asns {
		if r, have := w.ss.Speakers[asn].Best(hp); have && origin(asn, r) == leaf {
			stale[asn] = true
		}
	}
	affected := len(stale)
	closed := map[topology.ASN]netsim.Time{}
	for _, asn := range asns {
		asn := asn
		w.ss.Speakers[asn].OnLocChange = func(p addr.Prefix, r bgp.Route, have bool) {
			if p != hp {
				return
			}
			if have && origin(asn, r) == leaf {
				stale[asn] = true
			} else if stale[asn] {
				// The window closes (until path exploration reopens it;
				// the last closure wins).
				delete(stale, asn)
				closed[asn] = w.eng.Now()
			}
		}
	}
	pre := w.ss.Totals()
	t0 = w.eng.Now()
	w.ss.Speakers[leaf].Withdraw(hp)
	quiet, converged = w.ss.RunToConvergence(0)
	bh := windows(closed, t0)
	rehomed := 0
	for _, asn := range asns {
		if r, have := w.ss.Speakers[asn].Best(hp); have && origin(asn, r) == hub {
			rehomed++
		}
	}
	post := w.ss.Totals()
	failUpdates := post.Updates - pre.Updates
	// A stale AS at quiescence still forwards toward the withdrawn origin:
	// the permanent black hole the session resync exists to prevent.
	ok = ok && converged && len(stale) == 0 && rehomed == nAS && failUpdates < cold.Updates
	row("leaf withdrawal", quiet-t0, failUpdates,
		fmt.Sprintf("- / %s / %s", simMS(bh.Mean), simMS(bh.Max)),
		fmt.Sprintf("%d affected", affected), fmt.Sprintf("%d", len(stale)),
		fmt.Sprintf("black hole; %d withdrawals, %d/%d re-homed", post.Withdrawals-pre.Withdrawals, rehomed, nAS))

	// Hub-link flaps, on a fresh internet.
	w, err = coldSessionWorld(nAS, seed)
	if err != nil {
		return false, err
	}
	ok = ok && w.converged
	cfg := w.ss.Config()
	pre = w.ss.Totals()
	t0 = w.eng.Now()
	b, err := addr.Option1Address(1)
	if err != nil {
		return false, err
	}
	flapPrefix := addr.HostPrefix(b)
	if hubNbrs := w.net.Neighbors(hub); len(hubNbrs) > 0 {
		short := hubNbrs[0].ASN
		w.eng.At(t0+10, func() { w.fab.FlapLink(int(hub), int(short), cfg.Keepalive/2) })
		if len(hubNbrs) > 1 {
			long := hubNbrs[1].ASN
			w.eng.At(t0+10, func() { w.fab.FlapLink(int(hub), int(long), 2*cfg.Hold) })
		}
		w.ss.Speakers[short].Originate(flapPrefix)
		w.eng.At(t0+20, func() { w.ss.Speakers[short].Withdraw(flapPrefix) })
	}
	w.eng.RunUntil(t0 + 8000 + 3*cfg.Hold)
	quiet, converged = w.ss.RunToConvergence(0)
	// The fixpoint never originates flapPrefix: it was withdrawn inside
	// the blind window, so a holder at quiescence means the resync lost
	// the withdrawal.
	fix := bgp.NewSystem(w.net)
	fix.Converge()
	_, diverged := w.ss.Diverges(fix, flapPrefix)
	ok = ok && converged && !diverged
	post = w.ss.Totals()
	verdict := "matches fixpoint"
	if diverged {
		verdict = "DIVERGES from fixpoint"
	}
	row("hub-link flaps", quiet-t0, post.Updates-pre.Updates, "-", "-", "-",
		fmt.Sprintf("resyncs %d, downs %d, %s", post.Resyncs-pre.Resyncs, post.Downs-pre.Downs, verdict))
	return ok, nil
}
