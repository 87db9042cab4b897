package chaos

import (
	"go/parser"
	"slices"
	"strings"
	"testing"

	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/core"
	"github.com/evolvable-net/evolve/internal/topology"
)

// Fixed seeds for tier-1: small enough to stay fast under -race, varied
// enough to exercise every event kind. The nightly CI job explores fresh
// seeds; these pin the deterministic baseline.
var tier1Seeds = []int64{1, 2, 3}

func TestChaosStockTopologyHoldsInvariants(t *testing.T) {
	sc := StockScenario(42)
	for _, seed := range tier1Seeds {
		rep, err := Run(sc, seed, 30, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Violation != nil {
			t.Fatalf("seed %d: unexpected violation:\n%s", seed, FormatReport(rep))
		}
		if rep.EventsApplied != 30 {
			t.Fatalf("seed %d: applied %d events, want 30", seed, rep.EventsApplied)
		}
		if rep.Checks == 0 {
			t.Fatalf("seed %d: no invariant checks ran", seed)
		}
	}
}

func TestChaosScheduleDeterministic(t *testing.T) {
	sc := StockScenario(42)
	w1, err := NewWorld(sc)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := NewWorld(sc)
	if err != nil {
		t.Fatal(err)
	}
	s1 := Generate(w1, 7, 40)
	s2 := Generate(w2, 7, 40)
	if len(s1) != 40 {
		t.Fatalf("generated %d events, want 40", len(s1))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("schedules diverge at %d: %s vs %s", i, s1[i], s2[i])
		}
	}
	// A different seed must not produce the same timeline.
	s3 := Generate(w1, 8, 40)
	same := true
	for i := range s1 {
		if s1[i] != s3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 generated identical schedules")
	}
}

// buggyRestoreApply is World.Apply with the reconvergence step deliberately
// skipped on restores: the topology gets the link back but the IGP
// shortest-path caches and BGP tables are never invalidated. It is the
// canonical seeded bug for validating the harness — the
// oracle-equivalence and UA invariants must catch it, and the shrinker
// must reduce the offending schedule to a fail/restore pair.
func buggyRestoreApply(w *World, ev Event) {
	switch ev.Kind {
	case RestoreIntra:
		restoreIntraRaw(w, ev)
	case RestoreInter:
		restoreInterRaw(w, ev)
	case FlapIntra:
		w.failIntra(ev)
		restoreIntraRaw(w, ev)
	case FlapInter:
		w.failInter(ev)
		restoreInterRaw(w, ev)
	default:
		w.Apply(ev)
	}
}

// restoreIntraRaw is World.restoreIntra on the topology alone, behind the
// Evolution's back.
func restoreIntraRaw(w *World, ev Event) {
	k := mkLinkID(ev.A, ev.B)
	if lat, known := w.intraLat[k]; known && w.downIntra[k] {
		w.Net.RestoreIntraLink(ev.A, ev.B, lat)
		delete(w.downIntra, k)
	}
}

// restoreInterRaw is World.restoreInter on the topology alone.
func restoreInterRaw(w *World, ev Event) {
	k := mkLinkID(ev.A, ev.B)
	if spec, known := w.interSpec[k]; known && w.downInter[k] {
		w.Net.RestoreInterLink(spec)
		delete(w.downInter, k)
	}
}

// TestChaosCatchesSkippedReconvergence is the harness self-test the
// acceptance criteria demand: with reconvergence deliberately skipped on
// link restores, the invariants must flag a violation, and the shrinker
// must reduce the schedule to a handful of events (a fail/restore pair,
// possibly with a membership event the violation depends on).
func TestChaosCatchesSkippedReconvergence(t *testing.T) {
	sc := StockScenario(42)
	opts := Options{Shrink: true, apply: buggyRestoreApply}
	var caught *Report
	for seed := int64(1); seed <= 10; seed++ {
		rep, err := Run(sc, seed, 40, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Violation != nil {
			caught = rep
			break
		}
	}
	if caught == nil {
		t.Fatal("seeded skipped-reconvergence bug escaped 10 chaos runs")
	}
	if len(caught.Shrunk) == 0 {
		t.Fatalf("violation found but shrinking produced nothing:\n%s", FormatReport(caught))
	}
	if len(caught.Shrunk) > 5 {
		t.Fatalf("shrunk schedule has %d events, want ≤ 5:\n%s", len(caught.Shrunk), GoLiteral(caught.Shrunk))
	}
	// The minimal reproducer must actually involve a restore — that is
	// where the seeded bug lives.
	hasRestore := false
	for _, ev := range caught.Shrunk {
		switch ev.Kind {
		case RestoreIntra, RestoreInter, FlapIntra, FlapInter:
			hasRestore = true
		}
	}
	if !hasRestore {
		t.Fatalf("shrunk schedule has no restore event:\n%s", GoLiteral(caught.Shrunk))
	}
	// And replaying it must reproduce the same violation.
	rerun, err := Replay(sc, caught.Shrunk, Options{Invariants: []string{caught.Violation.Invariant}, apply: buggyRestoreApply})
	if err != nil {
		t.Fatal(err)
	}
	if rerun.Violation == nil {
		t.Fatalf("shrunk schedule does not reproduce the violation:\n%s", GoLiteral(caught.Shrunk))
	}
	// The emitted artifact must be a well-formed replayable literal.
	lit := GoLiteral(caught.Shrunk)
	if !strings.HasPrefix(lit, "[]chaos.Event{") || !strings.Contains(lit, "chaos.Restore") && !strings.Contains(lit, "chaos.Flap") {
		t.Fatalf("unexpected literal:\n%s", lit)
	}
}

// TestChaosHealthyRestoreNotFlagged is the control for the self-test:
// the same schedules applied through the production path must be clean,
// proving the violation above comes from the seeded bug, not the
// harness.
func TestChaosHealthyRestoreNotFlagged(t *testing.T) {
	sc := StockScenario(42)
	for seed := int64(1); seed <= 3; seed++ {
		rep, err := Run(sc, seed, 40, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Violation != nil {
			t.Fatalf("seed %d: healthy apply flagged:\n%s", seed, FormatReport(rep))
		}
	}
}

// TestTolerantApply pins the property shrinking depends on: events that
// make no sense in the current state (restoring an up link, failing a
// down one, double registration, an advert or a leave from a domain with
// no members) are silent no-ops, so any subsequence of a valid schedule
// replays without desync.
func TestTolerantApply(t *testing.T) {
	w, err := NewWorld(StockScenario(42))
	if err != nil {
		t.Fatal(err)
	}
	links := w.IntraLinks()
	if len(links) == 0 {
		t.Fatal("no intra links in stock world")
	}
	l := links[0]

	// Restore before any failure: no-op.
	w.Apply(Event{Kind: RestoreIntra, A: l.a, B: l.b})
	if w.downIntra[mkLinkID(l.a, l.b)] {
		t.Fatal("restore of an up link marked it down")
	}
	// Double failure: second is a no-op; link stays down once.
	w.Apply(Event{Kind: FailIntra, A: l.a, B: l.b})
	w.Apply(Event{Kind: FailIntra, A: l.a, B: l.b})
	if !w.downIntra[mkLinkID(l.a, l.b)] {
		t.Fatal("failed link not marked down")
	}
	// Restore brings back exactly the original latency (checked via the
	// topology: the edge exists again).
	w.Apply(Event{Kind: RestoreIntra, A: l.a, B: l.b})
	if w.downIntra[mkLinkID(l.a, l.b)] {
		t.Fatal("restored link still marked down")
	}
	if !w.Net.Intra.HasEdge(int(l.a), int(l.b)) {
		t.Fatal("restored link missing from topology")
	}
	// Unknown link (not in the initial inventory): ignored entirely.
	w.Apply(Event{Kind: FailIntra, A: 0, B: topology.RouterID(len(w.Net.Routers) + 5)})

	// Registration is idempotent and unregister of an unknown host is a
	// no-op.
	h := w.Net.Hosts[0].ID
	w.Apply(Event{Kind: UnregisterHost, Host: h})
	w.Apply(Event{Kind: RegisterHost, Host: h})
	w.Apply(Event{Kind: RegisterHost, Host: h})
	if !w.Registered(h) {
		t.Fatal("host not registered after RegisterHost")
	}
	w.Apply(Event{Kind: UnregisterHost, Host: h})
	if w.Registered(h) {
		t.Fatal("host still registered after UnregisterHost")
	}

	// An advert under option 1 is refused and recorded nowhere.
	w.Apply(Event{Kind: Advertise, ASN: w.Net.DomainOf(w.Evo.Dep.Members()[0])})
	if len(w.adverts) != 0 {
		t.Fatalf("option-1 advert recorded: %v", w.adverts)
	}

	// Under option 2, Advertise, RegisterDomain and UndeployDomain apply
	// twice as once, and are no-ops where they make no sense: an advert or
	// a leave from a domain with no members, a registration on an empty
	// deployment. The oracle invariant holds after every event.
	w, err = NewWorld(twinScenario(2)) // T0 and two routers of ASNs()[4] deployed
	if err != nil {
		t.Fatal(err)
	}
	t0, stub, idle := w.Net.DomainByName("T0").ASN, w.Net.ASNs()[4], w.Net.ASNs()[5]
	for _, ev := range []Event{
		{Kind: Advertise, ASN: t0}, {Kind: Advertise, ASN: t0}, {Kind: Advertise, ASN: idle},
		{Kind: RegisterDomain, ASN: idle}, {Kind: RegisterDomain, ASN: idle},
		{Kind: UndeployDomain, ASN: stub}, {Kind: UndeployDomain, ASN: stub}, {Kind: UndeployDomain, ASN: idle},
		{Kind: UndeployDomain, ASN: t0}, {Kind: RegisterDomain, ASN: stub}, // on an empty deployment
		{Kind: DeployDomain, ASN: t0},
	} {
		w.Apply(ev)
		if f := checkOracle(&CheckContext{W: w}); f != nil {
			t.Fatalf("after %s: %s", ev, f.Detail)
		}
	}
	if !slices.Equal(w.adverts, []topology.ASN{t0}) || w.Evo.Participates(stub) || w.Evo.Participates(idle) {
		t.Fatalf("adverts %v (want [%d]); AS%d participates=%v, AS%d participates=%v",
			w.adverts, t0, stub, w.Evo.Participates(stub), idle, w.Evo.Participates(idle))
	}
	for _, asn := range []topology.ASN{idle, stub} {
		for _, h := range w.Net.HostsIn(asn) {
			if w.Registered(h.ID) != (asn == idle) {
				t.Fatalf("h%d of AS%d registered=%v", h.ID, asn, w.Registered(h.ID))
			}
		}
	}
}

func TestInvariantSelection(t *testing.T) {
	invs, err := Invariants([]string{"ua", "conserve"})
	if err != nil {
		t.Fatal(err)
	}
	if len(invs) != 2 || invs[0].Name() != "ua" || invs[1].Name() != "conserve" {
		t.Fatalf("got %d invariants: %v", len(invs), invs)
	}
	if _, err := Invariants([]string{"no-such"}); err == nil {
		t.Fatal("unknown invariant accepted")
	}
	all, err := Invariants(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(InvariantNames()) {
		t.Fatalf("nil selection gave %d invariants, want %d", len(all), len(InvariantNames()))
	}
}

func TestGoLiteralRoundTrip(t *testing.T) {
	events := []Event{
		{Kind: FailIntra, A: 3, B: 7},
		{Kind: DeployDomain, ASN: 4},
		{Kind: RegisterHost, Host: 2},
		{Kind: RestoreIntra, A: 3, B: 7},
		{Kind: Advertise, ASN: 1},
		{Kind: UndeployDomain, ASN: 5},
		{Kind: RegisterDomain, ASN: 6},
	}
	lit := GoLiteral(events)
	for _, want := range []string{"chaos.FailIntra, A: 3, B: 7", "chaos.DeployDomain, ASN: 4", "chaos.RegisterHost, Host: 2",
		"chaos.Advertise, ASN: 1", "chaos.UndeployDomain, ASN: 5", "chaos.RegisterDomain, ASN: 6"} {
		if !strings.Contains(lit, want) {
			t.Fatalf("literal missing %q:\n%s", want, lit)
		}
	}
	if _, err := parser.ParseExpr(lit); err != nil {
		t.Fatalf("literal is not Go: %v\n%s", err, lit)
	}
}

// TestChaosAtScale runs a short schedule over a 1000-domain transit–stub
// internet with the invariants that stay cheap at that size (the oracle
// sweeps are quadratic in hosts and belong to the stock topology): no
// packet unaccounted for, and every event ticks the epoch. CI's
// scale-smoke job runs it.
func TestChaosAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-domain internet")
	}
	sc := Scenario{
		Name: "transit-stub-1000",
		Build: func() (*topology.Network, *core.Evolution, error) {
			net, err := topology.TransitStub(10, 99, 0.3, topology.GenConfig{
				Seed: 7, RoutersPerDomain: 2, HostsPerDomain: 1,
			})
			if err != nil {
				return nil, nil, err
			}
			evo, err := core.New(net, core.Config{Option: anycast.Option1})
			if err != nil {
				return nil, nil, err
			}
			for _, asn := range net.ASNs()[:8] {
				evo.DeployDomain(asn, 0)
			}
			return net, evo, evo.Ready()
		},
	}
	rep, err := Run(sc, 8, 40, Options{Invariants: []string{"conserve", "epochtick"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation != nil {
		t.Fatalf("unexpected violation:\n%s", FormatReport(rep))
	}
	if rep.Checks == 0 || rep.EventsApplied != 40 {
		t.Fatalf("%d checks over %d events, want 40 events", rep.Checks, rep.EventsApplied)
	}
}
