package core

import (
	"errors"
	"sync"
	"testing"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/trace"
)

// fbWorld is the canonical graceful-degradation topology: one participant
// domain P providing transit to two stub domains A and B that also peer
// directly, so severing A's uplink to P breaks the vN path (no reachable
// anycast ingress) while the A–B peering keeps the IPv(N-1) baseline
// intact — exactly the situation the fallback layer exists for.
type fbWorld struct {
	e          *Evolution
	srcs, dsts []*topology.Host
	rP, rA, rB topology.RouterID
}

func (w *fbWorld) src() *topology.Host { return w.srcs[0] }
func (w *fbWorld) dst() *topology.Host { return w.dsts[0] }

func newFBWorld(t *testing.T, fallback bool) *fbWorld {
	t.Helper()
	b := topology.NewBuilder()
	dP := b.AddDomain("P")
	dA := b.AddDomain("A")
	dB := b.AddDomain("B")
	rP := b.AddRouter(dP, "")
	rA := b.AddRouter(dA, "")
	rB := b.AddRouter(dB, "")
	b.Provide(rP, rA, 10)
	b.Provide(rP, rB, 10)
	b.Peer(rA, rB, 5)
	w := &fbWorld{rP: rP, rA: rA, rB: rB}
	w.srcs = append(w.srcs, b.AddHost(dA, rA, "src0", 1), b.AddHost(dA, rA, "src1", 1))
	w.dsts = append(w.dsts, b.AddHost(dB, rB, "dst0", 1), b.AddHost(dB, rB, "dst1", 1))
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(net, Config{Option: anycast.Option1, Fallback: fallback})
	if err != nil {
		t.Fatal(err)
	}
	e.DeployRouter(rP)
	return &fbWorld{e: e, srcs: w.srcs, dsts: w.dsts, rP: rP, rA: rA, rB: rB}
}

// TestFallbackCycleAndCounters walks one flow through the full
// degradation cycle — healthy → suspect → fallback → probation → healthy
// — and pins the Snapshot.Sub deltas at every checkpoint.
func TestFallbackCycleAndCounters(t *testing.T) {
	w := newFBWorld(t, true)
	e := w.e

	// Healthy: a vN delivery, no fallback, a healthy flow record.
	d, err := e.Send(w.src(), w.dst(), []byte("up"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Fallback {
		t.Error("healthy send rode the baseline")
	}
	if d.Ingress.Member != w.rP {
		t.Errorf("ingress member %d, want %d", d.Ingress.Member, w.rP)
	}
	info, ok := e.FlowHealth(w.src(), w.dst())
	if !ok || info.State != HealthHealthy {
		t.Fatalf("flow health = %+v, %v, want healthy", info, ok)
	}

	// Sever the vN path; the baseline peering survives.
	link, lok := e.FailInterLink(w.rP, w.rA)
	if !lok {
		t.Fatal("uplink not found")
	}

	// Three rescued sends walk the flow healthy → suspect → fallback.
	before := e.Snapshot()
	for i, want := range []HealthState{HealthSuspect, HealthSuspect, HealthFallback} {
		d, err := e.Send(w.src(), w.dst(), []byte("down"))
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if !d.Fallback {
			t.Fatalf("send %d did not ride the baseline", i)
		}
		if d.Stretch != 1 || d.TotalCost != d.BaselineCost {
			t.Fatalf("send %d: degraded delivery costed %+v", i, d)
		}
		info, _ := e.FlowHealth(w.src(), w.dst())
		if info.State != want {
			t.Fatalf("send %d: state %v, want %v", i, info.State, want)
		}
	}
	delta := e.Snapshot().Sub(before)
	if delta.DeliveryFallbackSends != 3 || delta.DeliveryFallbackRescues != 3 {
		t.Errorf("fallback sends/rescues = %d/%d, want 3/3",
			delta.DeliveryFallbackSends, delta.DeliveryFallbackRescues)
	}
	if delta.HealthSuspects != 1 || delta.HealthFallbacks != 1 {
		t.Errorf("suspect/fallback transitions = %d/%d, want 1/1",
			delta.HealthSuspects, delta.HealthFallbacks)
	}
	if delta.Deliveries != 3 || delta.Drops != 0 {
		t.Errorf("deliveries/drops = %d/%d, want 3/0", delta.Deliveries, delta.Drops)
	}

	// In the fallback state every send rides the baseline; the backoff
	// (probeBase 4, jitter under 3) guarantees a failed probe within ten
	// sends, and a failed probe is itself rescued.
	before = e.Snapshot()
	for i := 0; i < 10; i++ {
		d, err := e.Send(w.src(), w.dst(), nil)
		if err != nil || !d.Fallback {
			t.Fatalf("fallback-state send %d: %+v, %v", i, d, err)
		}
	}
	delta = e.Snapshot().Sub(before)
	if delta.DeliveryFallbackSends != 10 {
		t.Errorf("fallback-state sends = %d, want 10", delta.DeliveryFallbackSends)
	}
	if delta.HealthProbes == 0 {
		t.Error("no probe in 10 fallback sends despite probeBase 4")
	}
	if delta.HealthProbes != delta.DeliveryFallbackRescues {
		t.Errorf("probes %d != rescues %d: a failed probe must be rescued in-line",
			delta.HealthProbes, delta.DeliveryFallbackRescues)
	}

	// Repair: the epoch changes, so the very next send probes, succeeds
	// over vN, and probation accumulates back to healthy.
	e.RestoreInterLink(link)
	before = e.Snapshot()
	d, err = e.Send(w.src(), w.dst(), []byte("probe"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Fallback {
		t.Error("post-repair probe still rode the baseline")
	}
	info, _ = e.FlowHealth(w.src(), w.dst())
	if info.State != HealthProbation {
		t.Fatalf("post-probe state %v, want probation", info.State)
	}
	for i := 0; i < probationSends-1; i++ {
		if d, err = e.Send(w.src(), w.dst(), []byte("heal")); err != nil || d.Fallback {
			t.Fatalf("probation send %d: %+v, %v", i, d, err)
		}
	}
	info, _ = e.FlowHealth(w.src(), w.dst())
	if info.State != HealthHealthy {
		t.Fatalf("post-probation state %v, want healthy", info.State)
	}
	delta = e.Snapshot().Sub(before)
	if delta.HealthProbes != 1 || delta.HealthProbations != 1 || delta.HealthRecovered != 1 {
		t.Errorf("repair deltas probes/probations/recovered = %d/%d/%d, want 1/1/1",
			delta.HealthProbes, delta.HealthProbations, delta.HealthRecovered)
	}
	if delta.DeliveryFallbackSends != 0 {
		t.Errorf("repaired flow still made %d baseline sends", delta.DeliveryFallbackSends)
	}
}

// TestErrorEpochRidesBaseline pins the error-epoch rescue: when the
// deployment empties, a fallback-enabled world delivers over the baseline
// (loop and burst alike) where the ablated world fails fast.
func TestErrorEpochRidesBaseline(t *testing.T) {
	w := newFBWorld(t, true)
	e := w.e
	if _, err := e.Send(w.src(), w.dst(), nil); err != nil {
		t.Fatal(err)
	}
	e.UndeployRouter(w.rP) // empties the deployment: error epoch

	before := e.Snapshot()
	d, err := e.Send(w.src(), w.dst(), []byte("dark"))
	if err != nil {
		t.Fatalf("send under error epoch: %v", err)
	}
	if !d.Fallback {
		t.Error("error-epoch send did not ride the baseline")
	}
	out, err := e.AppendSendBurst(nil, w.src(), w.dsts[1], make([][]byte, 2))
	if err != nil {
		t.Fatalf("burst under error epoch: %v", err)
	}
	for i, bd := range out {
		if !bd.Fallback {
			t.Errorf("burst packet %d did not ride the baseline", i)
		}
	}
	delta := e.Snapshot().Sub(before)
	if delta.DeliveryFallbackSends != 3 || delta.DeliveryFallbackRescues != 3 {
		t.Errorf("fallback sends/rescues = %d/%d, want 3/3",
			delta.DeliveryFallbackSends, delta.DeliveryFallbackRescues)
	}
	if delta.Deliveries != 3 || delta.Drops != 0 {
		t.Errorf("deliveries/drops = %d/%d, want 3/0", delta.Deliveries, delta.Drops)
	}

	// With the baseline severed too there is nothing to degrade to: the
	// send fails with the baseline drop reason, not a rescue. (Undeploying
	// rP only leaves the vN overlay — its underlay links still forward —
	// so isolating the source domain takes both of A's links.)
	if _, ok := e.FailInterLink(w.rA, w.rB); !ok {
		t.Fatal("peering link not found")
	}
	if _, ok := e.FailInterLink(w.rP, w.rA); !ok {
		t.Fatal("uplink not found")
	}
	before = e.Snapshot()
	if _, err := e.Send(w.src(), w.dst(), nil); err == nil {
		t.Fatal("send with no vN path and no baseline succeeded")
	}
	delta = e.Snapshot().Sub(before)
	if delta.DropsByReason[trace.DropNoBaseline] != 1 {
		t.Errorf("no-baseline drops = %d, want 1", delta.DropsByReason[trace.DropNoBaseline])
	}

	// The ablated twin fails fast with the epoch error.
	wa := newFBWorld(t, false)
	if _, err := wa.e.Send(wa.src(), wa.dst(), nil); err != nil {
		t.Fatal(err)
	}
	wa.e.UndeployRouter(wa.rP)
	if _, err := wa.e.Send(wa.src(), wa.dst(), nil); !errors.Is(err, ErrNotDeployed) {
		t.Fatalf("ablated error-epoch send: %v, want ErrNotDeployed", err)
	}
}

// TestFlowHealthInspector pins the inspector's contract: no record before
// the first send, a live record after, and permanently disabled on the
// ablated configuration.
func TestFlowHealthInspector(t *testing.T) {
	w := newFBWorld(t, true)
	if _, ok := w.e.FlowHealth(w.src(), w.dst()); ok {
		t.Error("unseen flow reported a health record")
	}
	if _, err := w.e.Send(w.src(), w.dst(), nil); err != nil {
		t.Fatal(err)
	}
	info, ok := w.e.FlowHealth(w.src(), w.dst())
	if !ok || info.State != HealthHealthy || info.Fails != 0 {
		t.Errorf("flow health = %+v, %v, want a healthy record", info, ok)
	}
	if _, ok := w.e.FlowHealth(w.srcs[1], w.dst()); ok {
		t.Error("sibling flow reported a record without a send")
	}

	wa := newFBWorld(t, false)
	if _, err := wa.e.Send(wa.src(), wa.dst(), nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := wa.e.FlowHealth(wa.src(), wa.dst()); ok {
		t.Error("ablated world reported a health record")
	}
}

// TestReportUnackedVN pins the external delivery-failure signal: matching
// flows take failures exactly as if their sends had failed, non-matching
// destinations and ablated worlds are no-ops.
func TestReportUnackedVN(t *testing.T) {
	w := newFBWorld(t, true)
	e := w.e
	if n := e.ReportUnackedVN(addr.VN{Hi: 1, Lo: 1}); n != 0 {
		t.Errorf("unknown destination matched %d flows", n)
	}
	if _, err := e.Send(w.src(), w.dst(), nil); err != nil {
		t.Fatal(err)
	}
	v, err := e.HostVNAddr(w.dst())
	if err != nil {
		t.Fatal(err)
	}
	before := e.Snapshot()
	for i := 1; i <= 3; i++ {
		if n := e.ReportUnackedVN(v); n != 1 {
			t.Fatalf("signal %d matched %d flows, want 1", i, n)
		}
	}
	info, _ := e.FlowHealth(w.src(), w.dst())
	if info.State != HealthFallback {
		t.Errorf("state after 3 unacked signals = %v, want fallback", info.State)
	}
	delta := e.Snapshot().Sub(before)
	if delta.HealthSignals != 3 {
		t.Errorf("health signals = %d, want 3", delta.HealthSignals)
	}

	wa := newFBWorld(t, false)
	if _, err := wa.e.Send(wa.src(), wa.dst(), nil); err != nil {
		t.Fatal(err)
	}
	va, _ := wa.e.HostVNAddr(wa.dst())
	if n := wa.e.ReportUnackedVN(va); n != 0 {
		t.Errorf("ablated world signalled %d flows", n)
	}
}

// TestFallbackSendZeroAlloc pins the degraded steady state: with the
// layer enabled, neither the healthy path (health bookkeeping engaged)
// nor the fallback-state path (baseline plan memoised) allocates per
// send. The fallback window opens on a probe at the capped backoff, so
// no probe (a vN attempt, which allocates its error) falls inside it.
func TestFallbackSendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	w := newFBWorld(t, true)
	e := w.e
	payload := []byte("zero-alloc degraded steady state")
	for i := 0; i < 10; i++ {
		if _, err := e.Send(w.src(), w.dst(), payload); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.Send(w.src(), w.dst(), payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("healthy Send with fallback enabled allocates %.1f objects per op, want 0", allocs)
	}

	// Drive the flow into fallback (fallbackAfter 3) and on until a probe
	// has just backed off to probeMax, then measure the baseline steady
	// state: the next probe is at least probeMax sends away, beyond the
	// window's one warm-up and 50 measured sends.
	if _, ok := e.FailInterLink(w.rP, w.rA); !ok {
		t.Fatal("uplink not found")
	}
	for i := 0; ; i++ {
		if d, err := e.Send(w.src(), w.dst(), payload); err != nil || !d.Fallback {
			t.Fatalf("degraded send %d: %v", i, err)
		}
		info, _ := e.FlowHealth(w.src(), w.dst())
		if info.State == HealthFallback && info.ProbeEvery == probeMax && info.SinceProbe == 0 {
			break
		}
		if i > 4*probeMax {
			t.Fatalf("no probe reached the capped backoff in %d sends: %+v", i, info)
		}
	}
	probes := e.Snapshot().HealthProbes
	allocs = testing.AllocsPerRun(50, func() {
		d, err := e.Send(w.src(), w.dst(), payload)
		if err != nil || !d.Fallback {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("fallback-state Send allocates %.1f objects per op, want 0", allocs)
	}
	if n := e.Snapshot().HealthProbes - probes; n != 0 {
		t.Errorf("%d probes inside the measured window", n)
	}
}

// TestHealthCountersMonotonicRace hammers a fallback-enabled world with
// 64 concurrent senders while a mutator flaps the participant's uplink —
// rescues, fallbacks, probes and recoveries interleaving freely — and a
// sampler concurrently takes snapshots: every successive Sub must be
// non-negative (Sub panics on a regressing counter). At the end the
// transition counters must tie together relationally.
func TestHealthCountersMonotonicRace(t *testing.T) {
	w := newFBWorld(t, true)
	e := w.e
	if err := e.Ready(); err != nil {
		t.Fatal(err)
	}

	const (
		senders = 64
		iters   = 40
	)
	start := e.Snapshot()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Mutator: flap the uplink so vN attempts fail and heal repeatedly.
	// The A–B peering never fails, so the baseline is always intact and
	// every send must deliver — degraded, maybe, but never dark.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if link, ok := e.FailInterLink(w.rP, w.rA); ok {
				e.RestoreInterLink(link)
			}
		}
	}()

	// Sampler: concurrent snapshots must be mutually monotonic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := e.Snapshot()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := e.Snapshot()
			_ = cur.Sub(prev) // panics if any counter regressed
			prev = cur
		}
	}()

	errc := make(chan error, senders)
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := w.srcs[g%len(w.srcs)]
			dst := w.dsts[(g/2)%len(w.dsts)]
			for i := 0; i < iters; i++ {
				if _, err := e.Send(src, dst, []byte{byte(g), byte(i)}); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < senders; g++ {
		if err := <-errc; err != nil {
			t.Errorf("send failed despite an intact baseline: %v", err)
		}
	}
	close(stop)
	wg.Wait()

	delta := e.Snapshot().Sub(start)
	total := uint64(senders * iters)
	if delta.Sends != total || delta.Deliveries != total || delta.Drops != 0 {
		t.Errorf("sends/deliveries/drops = %d/%d/%d, want %d/%d/0",
			delta.Sends, delta.Deliveries, delta.Drops, total, total)
	}
	if delta.DeliveryFallbackRescues > delta.DeliveryFallbackSends {
		t.Errorf("rescues %d exceed fallback sends %d",
			delta.DeliveryFallbackRescues, delta.DeliveryFallbackSends)
	}
	if delta.HealthProbations > delta.HealthProbes {
		t.Errorf("probation entries %d exceed probes %d",
			delta.HealthProbations, delta.HealthProbes)
	}
	if delta.HealthProbations > delta.HealthFallbacks {
		t.Errorf("probation entries %d exceed fallback entries %d",
			delta.HealthProbations, delta.HealthFallbacks)
	}
	if delta.HealthRecovered > delta.HealthProbations+delta.HealthSuspects {
		t.Errorf("recoveries %d exceed probation+suspect entries %d+%d",
			delta.HealthRecovered, delta.HealthProbations, delta.HealthSuspects)
	}
}
