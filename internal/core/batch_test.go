package core

import (
	"errors"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/trace"
)

// stripSeq zeroes the per-delivery random sequence in an event stream so
// loop and batch traces compare on kind, order, routers and costs alone.
func stripSeq(events []trace.Event) []trace.Event {
	out := make([]trace.Event, len(events))
	for i, e := range events {
		e.Seq = 0
		out[i] = e
	}
	return out
}

// errString renders an error for cross-arm comparison ("" for nil):
// string equality is the observational contract.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// normalizeChurnCounters erases the one legitimate divergence between a
// burst and its equivalent loop under mid-run epoch churn: the burst pins
// one epoch throughout, so once the epoch is republished its cache stores
// are gated off and its first packet misses (the rest hit the burst's own
// flow), while the loop reloads a fresh epoch per send, whose cache
// starts over and then fills. Hits
// versus misses is a cache-placement detail, never routing: merge them
// and compare totals.
func normalizeChurnCounters(s trace.Snapshot) trace.Snapshot {
	s.DeliveryFlowMisses += s.DeliveryFlowHits
	s.DeliveryFlowHits = 0
	s.RedirectCacheHits = 0
	return s
}

// diffWorld is one arm's half of the differential harness: an Evolution
// on its own (identically seeded) network, deployed and registered by
// the shared script.
type diffWorld struct {
	e     *Evolution
	hosts []*topology.Host
	// republish re-seals the current epoch without changing routing (an
	// already-deployed router re-deployed) — the churn injection.
	republish func()
}

func newDiffWorld(t *testing.T, cfg Config, shards int) *diffWorld {
	t.Helper()
	n := world(t)
	e := newEvoShards(t, n, cfg, shards)
	t0 := n.DomainByName("T0")
	e.DeployDomain(t0.ASN, 0)
	e.DeployDomain(n.DomainByName("S0.0").ASN, 0)
	if err := e.RegisterEndhosts(n.HostsIn(n.DomainByName("S1.1").ASN)); err != nil {
		t.Fatal(err)
	}
	deployed := t0.Routers[0]
	return &diffWorld{
		e:         e,
		hosts:     n.Hosts,
		republish: func() { e.DeployRouter(deployed) },
	}
}

// TestSendBatchDifferential is the burst≡loop differential harness: for
// randomized bursts (sources, destinations, payloads including nil, empty
// and oversized-overflow ones) it runs AppendSendBurst on one world and
// the equivalent Send loop on an identically seeded twin, and requires
// byte-identical deliveries, identical per-packet errors in order and
// identical counter deltas — across shard counts and mid-burst epoch
// churn. Send and AppendSendBurst drive one engine, so what this pins is
// that bursting (one pinned epoch, one flow's template reused, one
// counter flush) changes nothing the engine produces.
func TestSendBatchDifferential(t *testing.T) {
	fallback := Config{Fallback: true}
	arms := []struct {
		name   string
		cfg    Config
		shards int
		churn  bool
	}{
		{"shards=1", Config{}, 1, false},
		{"shards=4", Config{}, 4, false},
		{"shards=16", Config{}, 16, false},
		{"churn/shards=4", Config{}, 4, true},
		// The graceful-degradation arms: the health layer's decisions are a
		// pure function of the flow's history and the epoch sequence, so the
		// batch≡loop contract must extend to suspect transitions, rescues
		// and fallback-state sends. (No churn arm here: a mid-batch epoch
		// republish legitimately diverges probe timing between the pinned
		// batch epoch and the loop's per-send reload.)
		{"fallback/shards=1", fallback, 1, false},
		{"fallback/shards=4", fallback, 4, false},
		{"fallback/shards=16", fallback, 16, false},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			runBatchDifferential(t, arm.cfg, arm.shards, arm.churn)
		})
	}
}

func runBatchDifferential(t *testing.T, cfg Config, shards int, churn bool) {
	loop := newDiffWorld(t, cfg, shards)
	batch := newDiffWorld(t, cfg, shards)

	// The churn hook republishes the epoch before packets 2 and 5 of a
	// burst. The burst fires it via testBatchHook inside AppendSendBurst;
	// the loop arm calls the same hook at the same indexes between Sends.
	hook := func(w *diffWorld, i int) {
		if churn && (i == 2 || i == 5) {
			w.republish()
		}
	}
	batch.e.testBatchHook = func(i int) { hook(batch, i) }
	defer func() { batch.e.testBatchHook = nil }()

	oversized := make([]byte, 0x10000)
	rng := rand.New(rand.NewPCG(7, 7))
	const rounds = 30
	for round := 0; round < rounds; round++ {
		nb := 1 + rng.IntN(12)
		srcIdx := rng.IntN(len(loop.hosts))
		dstIdx := rng.IntN(len(loop.hosts))
		payloads := make([][]byte, nb)
		for i := range payloads {
			switch rng.IntN(8) {
			case 0:
				payloads[i] = nil
			case 1:
				payloads[i] = []byte{}
			case 2:
				// A >64KiB payload overflows the VN length field: a
				// deterministic mid-batch drop that must not poison the
				// rest of the burst.
				payloads[i] = oversized
			default:
				pl := make([]byte, 1+rng.IntN(64))
				for j := range pl {
					pl[j] = byte(rng.IntN(256))
				}
				payloads[i] = pl
			}
		}

		// Loop arm: one Send per packet.
		loopBefore := loop.e.Snapshot()
		loopDel := make([]Delivery, nb)
		loopErrs := make([]string, nb)
		for i := 0; i < nb; i++ {
			hook(loop, i)
			d, err := loop.e.Send(loop.hosts[srcIdx], loop.hosts[dstIdx], payloads[i])
			loopDel[i] = stripTag(d)
			loopErrs[i] = errString(err)
		}
		loopDelta := loop.e.Snapshot().Sub(loopBefore)

		// Burst arm: one AppendSendBurst call.
		batchBefore := batch.e.Snapshot()
		got, err := batch.e.AppendSendBurst(nil, batch.hosts[srcIdx], batch.hosts[dstIdx], payloads)
		batchDelta := batch.e.Snapshot().Sub(batchBefore)

		if len(got) != nb {
			t.Fatalf("round %d: batch returned %d deliveries, want %d", round, len(got), nb)
		}
		batchErrs := make([]string, nb)
		if err != nil {
			var be *BatchError
			if !errors.As(err, &be) {
				t.Fatalf("round %d: batch error is %T (%v), want *BatchError", round, err, err)
			}
			if len(be.Errs) != nb {
				t.Fatalf("round %d: BatchError has %d entries, want %d", round, len(be.Errs), nb)
			}
			n := 0
			for i, e := range be.Errs {
				batchErrs[i] = errString(e)
				if e != nil {
					n++
				}
			}
			if n != be.Failed || n == 0 {
				t.Fatalf("round %d: BatchError.Failed=%d, counted %d non-nil", round, be.Failed, n)
			}
		}

		for i := 0; i < nb; i++ {
			if loopErrs[i] != batchErrs[i] {
				t.Fatalf("round %d packet %d: error diverges:\nloop:  %q\nbatch: %q",
					round, i, loopErrs[i], batchErrs[i])
			}
			if !reflect.DeepEqual(loopDel[i], stripTag(got[i])) {
				t.Fatalf("round %d packet %d: delivery diverges:\nloop:  %+v\nbatch: %+v",
					round, i, loopDel[i], got[i])
			}
		}

		// Counters: the burst arm additionally moves the batch_* gauges;
		// assert them, then erase for the field-by-field comparison.
		if want := uint64(1); batchDelta.DeliveryBatchFlows != want {
			t.Fatalf("round %d: batch materialized %d flows, want %d",
				round, batchDelta.DeliveryBatchFlows, want)
		}
		if batchDelta.DeliveryBatchPackets != uint64(nb) {
			t.Fatalf("round %d: batch counted %d packets, want %d",
				round, batchDelta.DeliveryBatchPackets, nb)
		}
		batchDelta.DeliveryBatchFlows, batchDelta.DeliveryBatchPackets = 0, 0
		ld, bd := loopDelta, batchDelta
		if churn {
			ld, bd = normalizeChurnCounters(ld), normalizeChurnCounters(bd)
		}
		if !reflect.DeepEqual(ld, bd) {
			t.Fatalf("round %d: counter deltas diverge:\nloop:  %+v\nbatch: %+v", round, ld, bd)
		}
	}
}

// TestSendBatchSeededScript replays the shard-equivalence delivery script
// with every pair's two sends expressed as one two-packet AppendSendBurst
// and checks the deliveries against the loop-driven reference — the burst
// path riding through deployment, failure and registration churn between
// bursts.
func TestSendBatchSeededScript(t *testing.T) {
	refEvo := newEvo(t, world(t), Config{})
	refDel, refAddrs := runDeliveryScript(t, refEvo)

	e := newEvo(t, world(t), Config{})
	n := e.Net
	t0 := n.DomainByName("T0")
	s11 := n.DomainByName("S1.1")
	e.DeployDomain(t0.ASN, 0)
	e.DeployDomain(n.DomainByName("S0.0").ASN, 0)
	if err := e.RegisterEndhosts(n.HostsIn(s11.ASN)); err != nil {
		t.Fatal(err)
	}

	var deliveries []Delivery
	sendAll := func() {
		for _, src := range n.Hosts[:6] {
			for _, dst := range n.Hosts[len(n.Hosts)-6:] {
				if src == dst {
					continue
				}
				// The script sends each pair twice (cache-hit coverage);
				// keep that shape as a two-packet burst.
				got, err := e.AppendSendBurst(nil, src, dst, make([][]byte, 2))
				if err != nil {
					t.Fatalf("burst %s->%s: %v", src.Name, dst.Name, err)
				}
				d, d2 := stripTag(got[0]), stripTag(got[1])
				if !reflect.DeepEqual(d, d2) {
					t.Fatalf("in-burst re-send differs for %s->%s:\n%+v\n%+v",
						src.Name, dst.Name, d, d2)
				}
				deliveries = append(deliveries, d)
			}
		}
	}

	sendAll()
	rts := t0.Routers
	e.FailIntraLink(rts[0], rts[1])
	sendAll()
	e.DeployDomain(n.DomainByName("S1.0").ASN, 1)
	sendAll()
	e.UnregisterEndhost(n.HostsIn(s11.ASN)[0])
	sendAll()

	// The script payload is "equivalence"; bursts above carried nil
	// payloads, so compare with payloads erased on both sides.
	noPayload := func(ds []Delivery) []Delivery {
		out := make([]Delivery, len(ds))
		for i, d := range ds {
			d.Payload = nil
			out[i] = d
		}
		return out
	}
	if !reflect.DeepEqual(noPayload(refDel), noPayload(deliveries)) {
		t.Fatal("batched script deliveries diverge from loop reference")
	}
	for i, h := range n.Hosts {
		v, err := e.HostVNAddr(h)
		if err != nil {
			t.Fatal(err)
		}
		if v.String() != refAddrs[i] {
			t.Errorf("host %s address %s, want %s", h.Name, v, refAddrs[i])
		}
	}
}

// TestSendBatchArgumentErrors pins the plain-error paths: an unusable
// epoch fails every packet with the epoch error, counted exactly like the
// equivalent loop, and an empty burst is free.
func TestSendBatchArgumentErrors(t *testing.T) {
	n := world(t)
	e := newEvo(t, n, Config{})

	// Undeployed: the epoch error, one not-deployed drop per packet.
	before := e.Snapshot()
	out, err := e.AppendSendBurst(nil, n.Hosts[0], n.Hosts[1], make([][]byte, 2))
	if !errors.Is(err, ErrNotDeployed) {
		t.Fatalf("undeployed burst: %v, want ErrNotDeployed", err)
	}
	if out != nil {
		t.Fatalf("undeployed burst extended out: %v", out)
	}
	delta := e.Snapshot().Sub(before)
	if delta.Sends != 2 || delta.DropsByReason[trace.DropNotDeployed] != 2 {
		t.Fatalf("undeployed burst counted sends=%d notdeployed=%d, want 2/2",
			delta.Sends, delta.DropsByReason[trace.DropNotDeployed])
	}
	if delta.DeliveryBatchPackets != 2 {
		t.Fatalf("undeployed burst counted %d batch packets, want 2", delta.DeliveryBatchPackets)
	}

	// Empty bursts are free.
	e.DeployDomain(n.DomainByName("T0").ASN, 0)
	before = e.Snapshot()
	if out, err := e.AppendSendBurst(nil, n.Hosts[0], n.Hosts[1], nil); err != nil || out != nil {
		t.Fatalf("empty burst: %v, %v", out, err)
	}
	if d := e.Snapshot().Sub(before); d.Sends != 0 {
		t.Fatalf("empty burst moved counters: %+v", d)
	}
}

// TestBatchErrorMessage pins the summary format and the errors.As
// contract documented on BatchError.
func TestBatchErrorMessage(t *testing.T) {
	be := &BatchError{Errs: []error{nil, errors.New("boom"), nil}, Failed: 1}
	want := "core: batch: 1 of 3 packets dropped (first: boom)"
	if be.Error() != want {
		t.Errorf("BatchError.Error() = %q, want %q", be.Error(), want)
	}
	var got *BatchError
	if err := error(be); !errors.As(err, &got) || got != be {
		t.Error("errors.As failed to recover *BatchError")
	}
}

// TestSendBatchConcurrentChurn hammers the burst path under -race: many
// goroutines issuing overlapping bursts while mutators churn links and
// membership. Every burst must be torn-free: its packets observed one
// routing epoch, so their deliveries are identical modulo the trace tag.
func TestSendBatchConcurrentChurn(t *testing.T) {
	n := world(t)
	e := newEvo(t, n, Config{})
	t0 := n.DomainByName("T0")
	e.DeployDomain(t0.ASN, 0)
	if err := e.RegisterEndhosts(n.HostsIn(n.DomainByName("S1.1").ASN)); err != nil {
		t.Fatal(err)
	}

	const (
		senders = 64
		batches = 30
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Churn: intra-domain link failures/restores and membership flaps in
	// the deployed transit, mirroring TestConcurrentSendsWithChurn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rts := t0.Routers
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 4 {
			case 0:
				e.FailIntraLink(rts[0], rts[1])
			case 1:
				e.RestoreIntraLink(rts[0], rts[1], 1)
			case 2:
				e.UndeployRouter(rts[len(rts)-1])
			case 3:
				e.DeployRouter(rts[len(rts)-1])
			}
		}
	}()

	errc := make(chan error, senders)
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 17))
			var out []Delivery
			for b := 0; b < batches; b++ {
				src := n.Hosts[rng.IntN(len(n.Hosts))]
				dst := n.Hosts[rng.IntN(len(n.Hosts))]
				nb := 2 + rng.IntN(14)
				var err error
				out, err = e.AppendSendBurst(out[:0], src, dst, make([][]byte, nb))
				var be *BatchError
				if err != nil && !errors.As(err, &be) {
					// A whole-burst error is the epoch error: tolerable
					// mid-churn, and out is unextended by contract.
					if len(out) != 0 {
						errc <- errors.New("whole-burst error extended the delivery slice")
						return
					}
					continue
				}
				if len(out) != nb {
					errc <- errors.New("burst returned short delivery slice")
					return
				}
				for i := 1; i < nb; i++ {
					if be != nil && (be.Errs[i] != nil || be.Errs[i-1] != nil) {
						continue // dropped packets carry zero deliveries
					}
					if !reflect.DeepEqual(stripTag(out[i-1]), stripTag(out[i])) {
						errc <- errors.New("torn burst: packets diverged within one burst")
						return
					}
				}
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < senders; g++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestSendBatchZeroAlloc pins the burst steady state: with the flow
// memoised, the context pool warm and the caller reusing its output and
// input slices, AppendSendBurst allocates nothing per burst.
func TestSendBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	n := world(t)
	e := newEvo(t, n, Config{})
	e.DeployDomain(n.DomainByName("T0").ASN, 0)
	src := n.HostsIn(n.DomainByName("S0.0").ASN)[0]
	hs := n.HostsIn(n.DomainByName("S1.1").ASN)
	payloads := make([][]byte, 8)
	for i := range payloads {
		payloads[i] = []byte("zero-alloc batch steady state")
	}
	out := make([]Delivery, 0, len(payloads))
	var err error
	for i := 0; i < 10; i++ {
		if out, err = e.AppendSendBurst(out[:0], src, hs[0], payloads); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if out, err = e.AppendSendBurst(out[:0], src, hs[0], payloads); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state AppendSendBurst allocates %.1f objects per op, want 0", allocs)
	}
}

// TestBurstProbesFlowCacheOncePerFlow pins what a burst shares per flow:
// the send's own flow answers every packet after the first, so the
// epoch's shared flow cache is probed once per burst. The hook makes
// probes visible by emptying the pinned epoch's table mid-burst: any
// packet that still went to it would miss and recompute.
func TestBurstProbesFlowCacheOncePerFlow(t *testing.T) {
	n := world(t)
	e := newEvo(t, n, Config{})
	e.DeployDomain(n.DomainByName("T0").ASN, 0)
	src := n.HostsIn(n.DomainByName("S0.0").ASN)[0]
	hs := n.HostsIn(n.DomainByName("S1.1").ASN)
	a, b := hs[0], hs[1]
	for _, dst := range []*topology.Host{a, b} {
		if _, err := e.Send(src, dst, nil); err != nil {
			t.Fatal(err)
		}
	}
	defer func() { e.testBatchHook = nil }()
	dropSharedFlows := func() {
		ep := e.epoch.Load()
		ep.flow = ep.flow.fresh()
	}

	// One flow, table emptied before packet 1: packet 0 is the burst's one
	// probe (a hit, the flow is warm) and nobody looks again.
	e.testBatchHook = func(i int) {
		if i == 1 {
			dropSharedFlows()
		}
	}
	before := e.Snapshot()
	got, err := e.AppendSendBurst(nil, src, a, make([][]byte, 8))
	if err != nil || len(got) != 8 {
		t.Fatalf("burst: %d deliveries, %v", len(got), err)
	}
	d := e.Snapshot().Sub(before)
	if d.Deliveries != 8 || d.DeliveryFlowHits != 8 || d.DeliveryFlowMisses != 0 ||
		d.RedirectCacheHits != 8 || d.Redirects != 8 || d.DeliveryBatchFlows != 1 {
		t.Errorf("burst: deliveries=%d flow hits/misses=%d/%d redirects hits/total=%d/%d flows=%d, want 8 8/0 8/8 1",
			d.Deliveries, d.DeliveryFlowHits, d.DeliveryFlowMisses, d.RedirectCacheHits, d.Redirects, d.DeliveryBatchFlows)
	}

	// Table emptied before every packet: the burst's one shared probe is a
	// miss, and every later packet rides the burst's own flow.
	e.testBatchHook = func(int) { dropSharedFlows() }
	before = e.Snapshot()
	got, err = e.AppendSendBurst(nil, src, b, make([][]byte, 5))
	if err != nil || len(got) != 5 {
		t.Fatalf("emptied burst: %d deliveries, %v", len(got), err)
	}
	d = e.Snapshot().Sub(before)
	if d.Deliveries != 5 || d.DeliveryFlowMisses != 1 || d.DeliveryFlowHits != 4 || d.DeliveryBatchFlows != 1 {
		t.Errorf("emptied burst: deliveries=%d flow hits/misses=%d/%d flows=%d, want 5 4/1 1",
			d.Deliveries, d.DeliveryFlowHits, d.DeliveryFlowMisses, d.DeliveryBatchFlows)
	}
	for i := 1; i < 5; i++ {
		if !reflect.DeepEqual(stripTag(got[i]), stripTag(got[0])) {
			t.Errorf("burst packet %d diverges from packet 0", i)
		}
	}
}

// TestReusedOutNeverLeaksDelivery pins the in-place write: the engine
// writes a packet's Delivery straight into the caller's slot, so a slot
// that held a delivery from the previous call must come back zero when its
// packet drops, and whole when its packet is rescued over the baseline —
// never the old delivery, never a mix.
func TestReusedOutNeverLeaksDelivery(t *testing.T) {
	const nb = 6
	calls := []struct {
		name string
		send func(e *Evolution, out []Delivery, src, dst *topology.Host, payloads [][]byte) ([]Delivery, error)
	}{
		{"burst", func(e *Evolution, out []Delivery, src, dst *topology.Host, payloads [][]byte) ([]Delivery, error) {
			return e.AppendSendBurst(out[:0], src, dst, payloads)
		}},
	}
	payloads := func() [][]byte {
		pls := make([][]byte, nb)
		for i := range pls {
			pls[i] = []byte{byte(i), 0xee}
		}
		return pls
	}
	// fill sends an all-success call and requires a vN delivery at every index.
	fill := func(t *testing.T, out []Delivery, err error) {
		t.Helper()
		if err != nil || len(out) != nb {
			t.Fatalf("filling call: %d deliveries, %v", len(out), err)
		}
		for i, d := range out {
			if d.Fallback || d.Ingress.Cost == 0 || d.TotalCost == 0 {
				t.Fatalf("filling call, packet %d: not a vN delivery: %+v", i, d)
			}
		}
	}

	for _, c := range calls {
		t.Run("drop/"+c.name, func(t *testing.T) {
			n := world(t)
			e := newEvo(t, n, Config{})
			e.DeployDomain(n.DomainByName("T0").ASN, 0)
			src := n.HostsIn(n.DomainByName("S0.0").ASN)[0]
			dst := n.HostsIn(n.DomainByName("S1.1").ASN)[0]
			pls := payloads()
			out, err := c.send(e, make([]Delivery, 0, nb), src, dst, pls)
			fill(t, out, err)

			const k = 3
			pls[k] = make([]byte, 0x10000) // overflows the VN length field
			out, err = c.send(e, out, src, dst, pls)
			var be *BatchError
			if !errors.As(err, &be) || be.Failed != 1 || be.Errs[k] == nil {
				t.Fatalf("oversized packet %d: error %v", k, err)
			}
			for i, d := range out {
				if i == k {
					if !reflect.DeepEqual(d, Delivery{}) {
						t.Errorf("dropped packet %d left a delivery behind: %+v", k, d)
					}
				} else if be.Errs[i] != nil || d.TotalCost == 0 || !reflect.DeepEqual(d.Payload, pls[i]) {
					t.Errorf("packet %d beside the drop: %+v, %v", i, d, be.Errs[i])
				}
			}
		})

		t.Run("rescue/"+c.name, func(t *testing.T) {
			w := newFBWorld(t, true)
			pls := payloads()
			out, err := c.send(w.e, make([]Delivery, 0, nb), w.src(), w.dst(), pls)
			fill(t, out, err)

			// Sever the vN path; the baseline peering survives.
			if _, ok := w.e.FailInterLink(w.rP, w.rA); !ok {
				t.Fatal("uplink not found")
			}
			out, err = c.send(w.e, out, w.src(), w.dst(), pls)
			if err != nil || len(out) != nb {
				t.Fatalf("rescued call: %d deliveries, %v", len(out), err)
			}
			for i, d := range out {
				want := Delivery{
					SrcVN: d.SrcVN, DstVN: d.DstVN,
					TotalCost: d.BaselineCost, BaselineCost: d.BaselineCost, Stretch: 1,
					Payload: pls[i], TraceTag: d.TraceTag, Fallback: true,
				}
				if d.BaselineCost == 0 || !reflect.DeepEqual(d, want) {
					t.Errorf("rescued packet %d carries vN-Bone fields: %+v", i, d)
				}
			}
		})
	}

	t.Run("single", func(t *testing.T) {
		n := world(t)
		e := newEvo(t, n, Config{})
		e.DeployDomain(n.DomainByName("T0").ASN, 0)
		src := n.HostsIn(n.DomainByName("S0.0").ASN)[0]
		dst := n.HostsIn(n.DomainByName("S1.1").ASN)[0]
		if _, err := e.Send(src, dst, []byte("ok")); err != nil {
			t.Fatal(err)
		}
		d, err := e.Send(src, dst, make([]byte, 0x10000))
		if err == nil || !reflect.DeepEqual(d, Delivery{}) {
			t.Errorf("failed Send returned %+v, %v, want the zero Delivery and an error", d, err)
		}
	})
}
