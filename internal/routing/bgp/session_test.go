package bgp

import (
	"testing"
	"testing/quick"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/netsim"
	"github.com/evolvable-net/evolve/internal/topology"
)

// runSessions builds the event-driven system over net and runs it to
// quiescence with the default session timers.
func runSessions(net *topology.Network) (*SessionSystem, *netsim.Engine) {
	eng := netsim.NewEngine()
	fab := netsim.NewFabric(eng)
	ss := NewSessionSystem(net, fab)
	if _, ok := ss.RunToConvergence(0); !ok {
		panic("session system did not quiesce")
	}
	return ss, eng
}

// providerChain builds the 3-AS chain T ← M ← S (T provides transit to
// M, M to S) used by the pinned-count and loss tests.
func providerChain(t *testing.T) (*topology.Network, topology.ASN, topology.ASN, topology.ASN) {
	t.Helper()
	b := topology.NewBuilder()
	dT := b.AddDomain("T")
	dM := b.AddDomain("M")
	dS := b.AddDomain("S")
	rT := b.AddRouter(dT, "")
	rM := b.AddRouter(dM, "")
	rS := b.AddRouter(dS, "")
	b.Provide(rT, rM, 10)
	b.Provide(rM, rS, 10)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net, dT.ASN, dM.ASN, dS.ASN
}

func chainSystem(t *testing.T, cfg SessionConfig) (*topology.Network, *SessionSystem, *netsim.Fabric, topology.ASN, topology.ASN, topology.ASN) {
	t.Helper()
	net, asT, asM, asS := providerChain(t)
	eng := netsim.NewEngine()
	fab := netsim.NewFabric(eng)
	ss := NewSessionSystemConfig(net, fab, cfg)
	return net, ss, fab, asT, asM, asS
}

// mustConverge runs to quiescence and fails the test on timeout.
func mustConverge(t *testing.T, ss *SessionSystem) netsim.Time {
	t.Helper()
	at, ok := ss.RunToConvergence(0)
	if !ok {
		t.Fatal("session system did not quiesce")
	}
	return at
}

// TestSessionMatchesFixpoint: the asynchronous message-passing BGP and
// the synchronous fixpoint solver converge to the same loc-RIBs on random
// internets — policy-safe configurations have a unique stable routing.
func TestSessionMatchesFixpoint(t *testing.T) {
	f := func(seed int64) bool {
		net, err := topology.TransitStub(1+int(uint64(seed)%3), 2+int(uint64(seed)%3), 0.4,
			topology.GenConfig{Seed: seed, RoutersPerDomain: 2})
		if err != nil {
			return false
		}
		fix := NewSystem(net)
		fix.Converge()
		ss, _ := runSessions(net)
		if detail, diverged := ss.Diverges(fix); diverged {
			t.Logf("seed %d: %s", seed, detail)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestSessionMatchesFixpointBA(t *testing.T) {
	f := func(seed int64) bool {
		net, err := topology.BarabasiAlbert(8+int(uint64(seed)%6), 2,
			topology.GenConfig{Seed: seed, RoutersPerDomain: 1})
		if err != nil {
			return false
		}
		fix := NewSystem(net)
		fix.Converge()
		ss, _ := runSessions(net)
		if detail, diverged := ss.Diverges(fix); diverged {
			t.Logf("seed %d: %s", seed, detail)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestSessionAnycastMultiOrigin(t *testing.T) {
	// Two stubs originate the same anycast host route asynchronously;
	// every AS converges to the same choice the fixpoint makes.
	net, err := topology.TransitStub(2, 3, 0, topology.GenConfig{Seed: 8, RoutersPerDomain: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := addr.Option1Address(0)
	hp := addr.HostPrefix(a)
	o1 := net.DomainByName("S0.0").ASN
	o2 := net.DomainByName("S1.2").ASN

	fix := NewSystem(net)
	fix.Originate(o1, hp)
	fix.Originate(o2, hp)
	fix.Converge()

	eng := netsim.NewEngine()
	fab := netsim.NewFabric(eng)
	ss := NewSessionSystem(net, fab)
	mustConverge(t, ss)
	ss.Speakers[o1].Originate(hp)
	ss.Speakers[o2].Originate(hp)
	mustConverge(t, ss)

	if detail, diverged := ss.Diverges(fix, hp); diverged {
		t.Error(detail)
	}
}

func TestSessionWithdrawPropagates(t *testing.T) {
	net, err := topology.TransitStub(2, 2, 0, topology.GenConfig{Seed: 9, RoutersPerDomain: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := addr.Option1Address(0)
	hp := addr.HostPrefix(a)
	origin := net.DomainByName("S1.1").ASN
	other := net.DomainByName("S0.0").ASN

	eng := netsim.NewEngine()
	fab := netsim.NewFabric(eng)
	ss := NewSessionSystem(net, fab)
	mustConverge(t, ss)
	ss.Speakers[origin].Originate(hp)
	mustConverge(t, ss)
	if _, ok := ss.Speakers[other].Best(hp); !ok {
		t.Fatal("anycast route did not propagate")
	}
	ss.Speakers[origin].Withdraw(hp)
	mustConverge(t, ss)
	if r, ok := ss.Speakers[other].Best(hp); ok {
		t.Errorf("withdrawn route survives: %+v", r)
	}
	// Originals unaffected.
	if _, ok := ss.Speakers[other].Best(net.Domain(origin).Prefix); !ok {
		t.Error("aggregate lost during anycast withdrawal")
	}
}

func TestSessionNoExportScoping(t *testing.T) {
	// Chain T ← M ← S: S advertises a host route only to M with
	// NO_EXPORT; T must never learn it, asynchronously too.
	_, ss, _, asT, asM, asS := chainSystem(t, DefaultSessionConfig())
	mustConverge(t, ss)
	p := addr.MustParsePrefix("200.0.0.1/32")
	ss.Speakers[asS].OriginateTo(p, asM)
	mustConverge(t, ss)
	if r, ok := ss.Speakers[asM].Best(p); !ok || !r.NoExport {
		t.Errorf("M's scoped route = %+v ok %v", r, ok)
	}
	if _, ok := ss.Speakers[asT].Best(p); ok {
		t.Error("NO_EXPORT leaked upstream asynchronously")
	}
}

func TestSessionUpdateCounts(t *testing.T) {
	net, err := topology.TransitStub(2, 4, 0.3, topology.GenConfig{Seed: 10, RoutersPerDomain: 1})
	if err != nil {
		t.Fatal(err)
	}
	ss, _ := runSessions(net)
	if ss.Totals().Updates == 0 {
		t.Error("no updates counted")
	}
	// A clean cold start advertises only — with Adj-RIB-Out diffing
	// there is nothing to withdraw, gratuitously or otherwise.
	if w := ss.Totals().Withdrawals; w != 0 {
		t.Errorf("cold start sent %d withdrawals, want 0", w)
	}
}

// TestOriginateAfterLearn is the regression test for the old
// OriginateTo bugs: the always-true NoExport and the loc guard that kept
// a previously neighbor-learned route even though the origination wins
// the decision process, leaving loc and announcements divergent.
func TestOriginateAfterLearn(t *testing.T) {
	net, asT, asM, asS := providerChain(t)
	hp := addr.MustParsePrefix("200.0.0.1/32")

	fix := NewSystem(net)
	fix.Originate(asT, hp)
	fix.Converge()
	fix.OriginateTo(asS, hp, asM)
	fix.Converge()

	eng := netsim.NewEngine()
	fab := netsim.NewFabric(eng)
	ss := NewSessionSystemConfig(net, fab, DefaultSessionConfig())
	mustConverge(t, ss)
	// S learns hp from T via M first…
	ss.Speakers[asT].Originate(hp)
	mustConverge(t, ss)
	if r, ok := ss.Speakers[asS].Best(hp); !ok || r.Origin() != asT {
		t.Fatalf("S should have learned hp from T first, got %+v ok %v", r, ok)
	}
	// …then originates it itself: the self route must displace the
	// learned one (prefSelf wins reselect), exactly as in the fixpoint.
	ss.Speakers[asS].OriginateTo(hp, asM)
	mustConverge(t, ss)

	sr, ok := ss.Speakers[asS].Best(hp)
	if !ok || sr.Origin() != -1 {
		t.Fatalf("S's origination did not displace the learned route: %+v ok %v", sr, ok)
	}
	if !sr.NoExport {
		t.Error("scoped origination lost its NO_EXPORT bit")
	}
	if detail, diverged := ss.Diverges(fix, hp); diverged {
		t.Error(detail)
	}
}

// TestNoGratuitousWithdraws pins exact message counts on the provider
// chain in legacy mode (sessions pre-established, MRAI off, no replay
// traffic), where every UPDATE is accounted for by hand:
//
//	cold start: T, M, S each originate their aggregate.
//	  T→M pT; M→T pM, M→S pM; S→M pS        = 4
//	  M re-exports pT to its customer S      = 5
//	  M re-exports customer route pS to T    = 6   (0 withdrawals)
//	anycast at S: S→M hp; M re-exports to T  = +2  (0 withdrawals)
//	withdraw at S: S→M, M→T                  = +2  (exactly 2 withdrawals)
//
// The old announce() would also have withdrawn toward neighbors that
// never heard an advert (e.g. M→S on the anycast withdraw), inflating
// the counters the convergence-dynamics experiment reports.
func TestNoGratuitousWithdraws(t *testing.T) {
	_, ss, _, _, _, asS := chainSystem(t, SessionConfig{})
	eng := ss.eng
	eng.Run(0)
	if tot := ss.Totals(); tot.Updates != 6 || tot.Withdrawals != 0 {
		t.Fatalf("cold start: %d updates %d withdrawals, want 6 and 0", tot.Updates, tot.Withdrawals)
	}
	hp := addr.MustParsePrefix("200.0.0.1/32")
	ss.Speakers[asS].Originate(hp)
	eng.Run(0)
	if tot := ss.Totals(); tot.Updates != 8 || tot.Withdrawals != 0 {
		t.Fatalf("after anycast originate: %d updates %d withdrawals, want 8 and 0", tot.Updates, tot.Withdrawals)
	}
	ss.Speakers[asS].Withdraw(hp)
	eng.Run(0)
	if tot := ss.Totals(); tot.Updates != 10 || tot.Withdrawals != 2 {
		t.Fatalf("after withdraw: %d updates %d withdrawals, want 10 and 2", tot.Updates, tot.Withdrawals)
	}
}

// TestLostWithdrawPermanentInLegacy documents the failure mode the
// session machinery exists to fix: in the fire-and-forget model a
// WITHDRAW dropped on a down link is gone forever — the stale route (a
// permanent black hole) survives the link's restoration indefinitely.
func TestLostWithdrawPermanentInLegacy(t *testing.T) {
	_, ss, fab, _, asM, asS := chainSystem(t, SessionConfig{})
	eng := ss.eng
	eng.Run(0)
	hp := addr.MustParsePrefix("200.0.0.1/32")
	ss.Speakers[asS].Originate(hp)
	eng.Run(0)

	fab.FailLink(int(asM), int(asS))
	ss.Speakers[asS].Withdraw(hp) // the WITHDRAW is dropped silently
	eng.Run(0)
	fab.RestoreLink(int(asM), int(asS))
	eng.Run(0)

	if _, ok := ss.Speakers[asM].Best(hp); !ok {
		t.Fatal("legacy mode unexpectedly recovered the lost WITHDRAW — " +
			"this ablation should demonstrate the permanent black hole")
	}
}

// TestLostWithdrawRecoveredByDownResync: an outage longer than the hold
// timer takes the session down on both sides; the WITHDRAW sent into the
// outage is dropped, but re-establishment replays the origin's full
// Adj-RIB-Out — which no longer contains the prefix — after the peer
// flushed, so the stale route cannot survive.
func TestLostWithdrawRecoveredByDownResync(t *testing.T) {
	_, ss, fab, asT, asM, asS := chainSystem(t, DefaultSessionConfig())
	eng := ss.eng
	mustConverge(t, ss)
	hp := addr.MustParsePrefix("200.0.0.1/32")
	ss.Speakers[asS].Originate(hp)
	mustConverge(t, ss)
	if _, ok := ss.Speakers[asT].Best(hp); !ok {
		t.Fatal("anycast route did not reach T")
	}

	hold := ss.Config().Hold
	now := eng.Now()
	eng.At(now+10, func() { fab.FailLink(int(asM), int(asS)) })
	eng.At(now+20, func() { ss.Speakers[asS].Withdraw(hp) })
	// Restore well after hold expiry but inside the quiescence window the
	// down-flush activity opened, so one RunToConvergence covers the
	// whole outage-and-recovery arc.
	eng.At(now+10+2*hold, func() { fab.RestoreLink(int(asM), int(asS)) })
	mustConverge(t, ss)

	for _, asn := range []topology.ASN{asT, asM} {
		if r, ok := ss.Speakers[asn].Best(hp); ok {
			t.Errorf("AS%d still routes the withdrawn prefix: %+v", asn, r)
		}
	}
	if ss.Totals().Downs == 0 {
		t.Error("expected hold-timer expiry to take the session down")
	}
	if ss.Speakers[asM].SessionState(asS) != SessEstablished || ss.Speakers[asS].SessionState(asM) != SessEstablished {
		t.Error("session did not re-establish after link restoration")
	}
	// The aggregate must have come back with the replay.
	for _, asn := range []topology.ASN{asT, asM} {
		if _, ok := ss.Speakers[asn].Best(ss.net.Domain(asS).Prefix); !ok {
			t.Errorf("AS%d lost S's aggregate across the outage", asn)
		}
	}
}

// TestLostWithdrawRecoveredBySeqResync: a flap shorter than the hold
// timer never takes the session down, so there is no flush/replay — but
// the dropped WITHDRAW consumed a sequence number, so the first message
// delivered after the flap exposes a gap and triggers a route-refresh
// resync. The still-stale entry is deleted at the end-of-RIB marker.
func TestLostWithdrawRecoveredBySeqResync(t *testing.T) {
	cfg := SessionConfig{Keepalive: 2000, Hold: 50000, MRAI: 0}
	_, ss, fab, asT, asM, asS := chainSystem(t, cfg)
	eng := ss.eng
	mustConverge(t, ss)
	hp := addr.MustParsePrefix("200.0.0.1/32")
	ss.Speakers[asS].Originate(hp)
	mustConverge(t, ss)
	if _, ok := ss.Speakers[asT].Best(hp); !ok {
		t.Fatal("anycast route did not reach T")
	}
	downsBefore := ss.Totals().Downs

	now := eng.Now()
	eng.At(now+10, func() { fab.FailLink(int(asM), int(asS)) })
	eng.At(now+20, func() { ss.Speakers[asS].Withdraw(hp) })
	eng.At(now+30, func() { fab.RestoreLink(int(asM), int(asS)) })
	mustConverge(t, ss)

	for _, asn := range []topology.ASN{asT, asM} {
		if r, ok := ss.Speakers[asn].Best(hp); ok {
			t.Errorf("AS%d still routes the withdrawn prefix: %+v", asn, r)
		}
	}
	if ss.Totals().Resyncs == 0 {
		t.Error("expected a sequence-gap resync to have fired")
	}
	if ss.Totals().Downs != downsBefore {
		t.Error("flap shorter than hold should not drop the session — " +
			"recovery must come from the sequence-gap path")
	}
}

// TestSessionDownFlushAndReplay: a long outage flushes the neighbor's
// routes mid-outage (withdrawing downstream) and restores them — and
// full fixpoint agreement — after the link returns.
func TestSessionDownFlushAndReplay(t *testing.T) {
	net, ss, fab, asT, asM, asS := chainSystem(t, DefaultSessionConfig())
	mustConverge(t, ss)
	pS := net.Domain(asS).Prefix

	fab.FailLink(int(asM), int(asS))
	mustConverge(t, ss)
	if _, ok := ss.Speakers[asM].Best(pS); ok {
		t.Error("M still routes S's aggregate during the outage")
	}
	if _, ok := ss.Speakers[asT].Best(pS); ok {
		t.Error("withdrawal did not propagate upstream to T")
	}
	if st := ss.Speakers[asM].SessionState(asS); st != SessDown {
		t.Errorf("M's session toward S = %v, want down", st)
	}

	fab.RestoreLink(int(asM), int(asS))
	mustConverge(t, ss)
	fix := NewSystem(net)
	fix.Converge()
	if detail, diverged := ss.Diverges(fix); diverged {
		t.Error(detail)
	}
	if st := ss.Speakers[asM].SessionState(asS); st != SessEstablished {
		t.Errorf("M's session toward S = %v after restore, want established", st)
	}
	_ = asT
}

// TestMRAICoalesces: changes inside one MRAI window collapse. The
// leading edge flushes immediately; a withdraw+re-originate churn within
// the armed window nets out to nothing at the timer — the neighbor never
// sees the transient.
func TestMRAICoalesces(t *testing.T) {
	cfg := SessionConfig{Keepalive: 2000, Hold: 6000, MRAI: 5000}
	_, ss, _, _, asM, asS := chainSystem(t, cfg)
	eng := ss.eng
	mustConverge(t, ss)
	hp := addr.MustParsePrefix("200.0.0.1/32")

	before := ss.Totals()
	now := eng.Now()
	eng.At(now+10, func() {
		sp := ss.Speakers[asS]
		sp.Originate(hp) // leading edge: advert flushes immediately
		sp.Withdraw(hp)  // batched…
		sp.Originate(hp) // …and cancelled out before the timer fires
	})
	mustConverge(t, ss)

	if _, ok := ss.Speakers[asM].Best(hp); !ok {
		t.Fatal("M never learned the (re-)originated prefix")
	}
	if w := ss.Totals().Withdrawals - before.Withdrawals; w != 0 {
		t.Errorf("MRAI window leaked %d withdrawals for a net no-op churn", w)
	}
	// S advertises hp to M once; M re-exports to T once. The withdraw and
	// re-originate inside the window must not add messages.
	if u := ss.Totals().Updates - before.Updates; u != 2 {
		t.Errorf("churn inside one MRAI window cost %d updates, want 2", u)
	}
}
