package chaos

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/netsim"
	"github.com/evolvable-net/evolve/internal/routing/bgp"
	"github.com/evolvable-net/evolve/internal/topology"
)

// This file is the session-convergence chaos arm: where the evolution
// harness (run.go) checks invariants after each *quiesced* step, this
// one drives the event-driven BGP sessions and probes invariants while
// UPDATE traffic is still in flight — link flaps, withdrawals, and
// originations land mid-convergence, not after it. The probed
// invariants are exactly the ones that hold at every instant of a
// correct execution (AS-path attribute safety); the full loc-RIB oracle
// against the batch fixpoint runs once quiescence is reached.

// SessionViolation is one mid-convergence invariant failure.
type SessionViolation struct {
	At        netsim.Time
	Invariant string
	Detail    string
}

func (v SessionViolation) String() string {
	return fmt.Sprintf("t=%s: invariant %q violated: %s", v.At, v.Invariant, v.Detail)
}

// SessionReport is the outcome of one session-convergence chaos run.
type SessionReport struct {
	Seed   int64
	NAS    int
	Legacy bool
	// Events counts injected faults (flaps, originations, withdrawals).
	Events int
	// Probes counts mid-convergence invariant sweeps; Checks counts
	// individual route evaluations across them.
	Probes int
	Checks int
	// Violations holds mid-convergence invariant failures (capped).
	Violations []SessionViolation
	// Quiesced reports whether the run reached protocol quiescence.
	Quiesced bool
	// OracleOK reports whether every speaker's loc-RIB matched the batch
	// fixpoint at quiescence; OracleDetail describes the first mismatch
	// (bgp.SessionSystem.Diverges).
	OracleOK     bool
	OracleDetail string
	// Protocol counters at the end of the run.
	Updates     uint64
	Withdrawals uint64
	Resyncs     uint64
	Downs       uint64
}

// Ok reports whether the run passed: quiesced, no invariant violations,
// and fixpoint agreement.
func (r *SessionReport) Ok() bool {
	return r.Quiesced && len(r.Violations) == 0 && r.OracleOK
}

const (
	maxSessionViolations = 8
	// sessionAS is the size of a session run's internet; sessionEvents is
	// how many faults its schedule draws.
	sessionAS     = 12
	sessionEvents = 14
)

// RunSessionChaos builds a random policy-safe internet of sessionAS ASes,
// runs the event-driven BGP sessions, and injects up to sessionEvents
// faults (link flaps straddling the hold timer, anycast originations,
// mid-stream withdrawals) while convergence is in flight, probing the
// transient invariants every 500 simulated microseconds:
//
//   - path-simple: no selected AS path contains a loop or the holder;
//   - next-hop adjacency: every selected path starts at a real neighbor;
//   - valley-free: every selected path is Gao-Rexford-valid.
//
// These hold at every instant of a correct execution — transient
// forwarding loops across ASes are legitimate during convergence, but a
// malformed path attribute never is. At quiescence the batch fixpoint
// over the surviving configuration is the oracle for every loc-RIB.
//
// legacy runs the ablation arm: fire-and-forget speakers with no session
// machinery. Faulty schedules are then *expected* to fail the oracle —
// a lost WITHDRAW is permanent — which is how the harness proves it can
// see the bug class the sessions fix.
func RunSessionChaos(seed int64, legacy bool) (*SessionReport, error) {
	rng := rand.New(rand.NewSource(seed))
	net, err := topology.BarabasiAlbert(sessionAS, 2, topology.GenConfig{
		Seed: seed, RoutersPerDomain: 1,
	})
	if err != nil {
		return nil, err
	}
	asns := net.ASNs()

	cfg := bgp.DefaultSessionConfig()
	if legacy {
		cfg = bgp.SessionConfig{}
	}
	eng := netsim.NewEngine()
	fab := netsim.NewFabric(eng)
	ss := bgp.NewSessionSystemConfig(net, fab, cfg)
	fix := bgp.NewSystem(net)

	rep := &SessionReport{Seed: seed, NAS: sessionAS, Legacy: legacy}

	// The probe sweeps every speaker's selected routes against the
	// transient invariants. It runs as an engine event, interleaved with
	// the UPDATE traffic it inspects.
	violate := func(at netsim.Time, inv, detail string) {
		if len(rep.Violations) < maxSessionViolations {
			rep.Violations = append(rep.Violations, SessionViolation{At: at, Invariant: inv, Detail: detail})
		}
	}
	probe := func() {
		rep.Probes++
		now := eng.Now()
		for _, holder := range asns {
			sp := ss.Speakers[holder]
			for _, r := range sp.Routes() {
				rep.Checks++
				seen := map[topology.ASN]bool{holder: true}
				simple := true
				for _, a := range r.Path {
					if seen[a] {
						simple = false
						break
					}
					seen[a] = true
				}
				if !simple {
					violate(now, "path-simple", fmt.Sprintf("AS%d→%s path %v", holder, r.Prefix, r.Path))
					continue
				}
				if len(r.Path) > 0 {
					if _, adj := bgp.RelOf(net, holder, r.Path[0]); !adj {
						violate(now, "nexthop-adjacent", fmt.Sprintf("AS%d→%s via non-neighbor AS%d", holder, r.Prefix, r.Path[0]))
						continue
					}
					full := append([]topology.ASN{holder}, r.Path...)
					if !bgp.ValleyFree(net, full) {
						violate(now, "valley-free", fmt.Sprintf("AS%d→%s path %v", holder, r.Prefix, full))
					}
				}
			}
		}
	}

	// Fault schedule: events spread over a churn window that starts at
	// once (mid-cold-start) so flaps hit sessions still establishing.
	const churnWindow = 12000
	hold := cfg.Hold
	if hold <= 0 {
		hold = bgp.DefaultSessionConfig().Hold
	}
	type origination struct {
		prefix addr.Prefix
		origin topology.ASN
		at     netsim.Time
	}
	var tracked []addr.Prefix
	var live []origination
	for i := 0; i < sessionEvents; i++ {
		at := netsim.Time(rng.Intn(churnWindow))
		switch rng.Intn(3) {
		case 0: // link flap, shorter or longer than the hold timer
			a := asns[rng.Intn(len(asns))]
			nbrs := net.Neighbors(a)
			if len(nbrs) == 0 {
				continue
			}
			b := nbrs[rng.Intn(len(nbrs))].ASN
			downFor := netsim.Time(1 + rng.Intn(int(3*hold)))
			eng.At(at, func() { fab.FlapLink(int(a), int(b), downFor) })
			rep.Events++
		case 1: // anycast origination
			a4, aerr := addr.Option1Address(uint32(len(tracked)))
			if aerr != nil {
				continue
			}
			hp := addr.HostPrefix(a4)
			origin := asns[rng.Intn(len(asns))]
			tracked = append(tracked, hp)
			live = append(live, origination{prefix: hp, origin: origin, at: at})
			fix.Originate(origin, hp)
			eng.At(at, func() { ss.Speakers[origin].Originate(hp) })
			rep.Events++
		case 2: // withdrawal of a live origination — scheduled strictly
			// after the origination it removes, so the session timeline
			// matches the mirrored fixpoint configuration.
			if len(live) == 0 {
				continue
			}
			idx := rng.Intn(len(live))
			o := live[idx]
			live = append(live[:idx], live[idx+1:]...)
			wAt := o.at + 1 + netsim.Time(rng.Intn(churnWindow/2))
			fix.Withdraw(o.origin, o.prefix)
			eng.At(wAt, func() { ss.Speakers[o.origin].Withdraw(o.prefix) })
			rep.Events++
		}
	}
	fix.Converge()

	// Probes every 500µs across the churn window plus the recovery tail.
	horizon := netsim.Time(churnWindow) + 3*hold + 1
	for t := netsim.Time(500); t < horizon; t += 500 {
		eng.At(t, probe)
	}

	eng.RunUntil(horizon)
	_, rep.Quiesced = ss.RunToConvergence(0)
	probe() // one final sweep at quiescence

	detail, diverged := ss.Diverges(fix, tracked...)
	rep.OracleOK, rep.OracleDetail = !diverged, detail

	tot := ss.Totals()
	rep.Updates, rep.Withdrawals, rep.Resyncs, rep.Downs = tot.Updates, tot.Withdrawals, tot.Resyncs, tot.Downs
	return rep, nil
}

// FormatSessionReport renders a session chaos report for humans.
func FormatSessionReport(rep *SessionReport) string {
	var b strings.Builder
	mode := "sessions"
	if rep.Legacy {
		mode = "legacy (no sessions)"
	}
	verdict := "ok"
	if !rep.Ok() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "%s: session chaos seed %d — %d AS, %s, %d faults, %d probes / %d checks\n",
		verdict, rep.Seed, rep.NAS, mode, rep.Events, rep.Probes, rep.Checks)
	fmt.Fprintf(&b, "  quiesced=%v oracle=%v updates=%d withdrawals=%d resyncs=%d downs=%d\n",
		rep.Quiesced, rep.OracleOK, rep.Updates, rep.Withdrawals, rep.Resyncs, rep.Downs)
	for _, v := range rep.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	if !rep.OracleOK {
		fmt.Fprintf(&b, "  oracle: %s\n", rep.OracleDetail)
	}
	return b.String()
}
