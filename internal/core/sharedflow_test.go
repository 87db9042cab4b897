package core

import (
	"reflect"
	"sync"
	"testing"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/trace"
)

// sharedFlowWorld is a deployment with a natively addressed destination
// (its domain participates) and a self-addressed one, provider choice on.
type sharedFlowWorld struct {
	e            *Evolution
	provider     topology.ASN
	src          *topology.Host
	native, self *topology.Host
}

func newSharedFlowWorld(t *testing.T) *sharedFlowWorld {
	t.Helper()
	n := world(t)
	e := newEvo(t, n, Config{})
	t0 := n.DomainByName("T0").ASN
	e.DeployDomain(t0, 0)
	e.DeployDomain(n.DomainByName("S0.0").ASN, 0)
	if _, err := e.EnableProviderChoice(t0); err != nil {
		t.Fatal(err)
	}
	w := &sharedFlowWorld{
		e:        e,
		provider: t0,
		src:      n.HostsIn(n.DomainByName("S1.0").ASN)[0],
		native:   n.HostsIn(n.DomainByName("S0.0").ASN)[0],
		self:     n.HostsIn(n.DomainByName("S1.1").ASN)[0],
	}
	ep := e.epoch.Load()
	if ep.addrOf(w.native).IsSelf() || !ep.addrOf(w.self).IsSelf() {
		t.Fatalf("world: native=%s self=%s", ep.addrOf(w.native), ep.addrOf(w.self))
	}
	return w
}

// entry returns the flow cache's entry for src → dst through the
// deployment at dep, nil when the current epoch holds none.
func (w *sharedFlowWorld) entry(dst *topology.Host, dep addr.V4) *flowEntry {
	fe, _ := w.e.epoch.Load().flow.load(uint32(w.src.ID), flowKey{src: w.src.ID, dst: dst.ID, dep: dep})
	return fe
}

// freshFlows republishes the same routing with the flow cache started over.
func (w *sharedFlowWorld) freshFlows(t *testing.T) {
	t.Helper()
	if err := w.e.RegisterEndhosts(nil); err != nil {
		t.Fatal(err)
	}
}

// TestSharedFlowMatchesScratch holds the two places a materialized flow
// can live to one behaviour. Through every entry point and for both
// destination kinds, the first send of a flow misses and materializes into
// the context's scratch, the second hits, builds the shared form and
// publishes it on the entry, the third uses the published pointer — and
// all three return identical deliveries, identical span events (only
// SendTraced emits any) and identical counter deltas, apart from the
// first one's miss. Then 64 goroutines race one flow's first reuse: one
// form ends up published and every delivery is the same.
func TestSharedFlowMatchesScratch(t *testing.T) {
	w := newSharedFlowWorld(t)
	e := w.e
	payloads := [][]byte{[]byte("one"), nil, []byte("three")}
	one := func(d Delivery, err error) ([]Delivery, error) { return []Delivery{d}, err }
	calls := []struct {
		name string
		via  bool
		send func(dst *topology.Host, rec *trace.Recorder) ([]Delivery, error)
	}{
		{"Send", false, func(dst *topology.Host, rec *trace.Recorder) ([]Delivery, error) {
			return one(e.Send(w.src, dst, payloads[0]))
		}},
		{"SendVia", true, func(dst *topology.Host, rec *trace.Recorder) ([]Delivery, error) {
			return one(e.SendVia(w.src, dst, w.provider, payloads[0]))
		}},
		{"SendTraced", false, func(dst *topology.Host, rec *trace.Recorder) ([]Delivery, error) {
			return one(e.SendTraced(w.src, dst, payloads[0], rec))
		}},
		{"AppendSendBurst", false, func(dst *topology.Host, rec *trace.Recorder) ([]Delivery, error) {
			return e.AppendSendBurst(nil, w.src, dst, payloads)
		}},
	}
	type outcome struct {
		ds     []Delivery
		events []trace.Event
		delta  trace.Snapshot
	}
	for _, c := range calls {
		for kind, dst := range map[string]*topology.Host{"native": w.native, "self": w.self} {
			t.Run(c.name+"/"+kind, func(t *testing.T) {
				w.freshFlows(t)
				dep := e.epoch.Load().dep.Addr
				if c.via {
					dep = e.epoch.Load().provDeps[w.provider].Addr
				}
				var rounds [3]outcome
				var forms [3]*flow
				for i := range rounds {
					rec := trace.NewRecorder()
					before := e.Snapshot()
					ds, err := c.send(dst, rec)
					if err != nil {
						t.Fatalf("send %d: %v", i, err)
					}
					for j := range ds {
						ds[j] = stripTag(ds[j])
					}
					rounds[i] = outcome{ds, stripSeq(rec.Events()), e.Snapshot().Sub(before)}
					fe := w.entry(dst, dep)
					if fe == nil {
						t.Fatalf("send %d left no flow entry", i)
					}
					forms[i] = fe.mat.Load()
				}
				if forms[0] != nil {
					t.Error("the first send (a miss) published a form")
				}
				if forms[1] == nil || forms[1] != forms[2] {
					t.Errorf("forms after the second and third sends: %p, %p, want one non-nil pointer", forms[1], forms[2])
				}
				if m := rounds[0].delta.DeliveryFlowMisses; m != 1 {
					t.Errorf("the first send counted %d misses, want 1", m)
				}
				if !reflect.DeepEqual(rounds[1].delta, rounds[2].delta) {
					t.Errorf("counter deltas of the building and the shared send differ:\n%s\n%s", rounds[1].delta, rounds[2].delta)
				}
				if got, want := normalizeChurnCounters(rounds[0].delta), normalizeChurnCounters(rounds[1].delta); !reflect.DeepEqual(got, want) {
					t.Errorf("scratch and shared sends count differently beyond miss → hit:\n%s\n%s", got, want)
				}
				for i := 1; i < len(rounds); i++ {
					if !reflect.DeepEqual(rounds[i].ds, rounds[0].ds) {
						t.Errorf("send %d delivers differently from the first:\n%+v\n%+v", i, rounds[i].ds, rounds[0].ds)
					}
					if !reflect.DeepEqual(rounds[i].events, rounds[0].events) {
						t.Errorf("send %d traces differently from the first:\n%s\n%s", i, e.FormatTrace(rounds[i].events), e.FormatTrace(rounds[0].events))
					}
				}
			})
		}
	}

	t.Run("race", func(t *testing.T) {
		const senders = 64
		w.freshFlows(t)
		want, err := e.Send(w.src, w.self, payloads[0])
		if err != nil {
			t.Fatal(err)
		}
		fe := w.entry(w.self, e.epoch.Load().dep.Addr)
		if fe == nil || fe.mat.Load() != nil {
			t.Fatalf("after one send: entry %p, want one with nothing materialized", fe)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got, err := e.Send(w.src, w.self, payloads[0])
				if err != nil || !reflect.DeepEqual(stripTag(got), stripTag(want)) {
					t.Errorf("racing send: %+v, %v, want %+v", got, err, want)
				}
			}()
		}
		close(start)
		wg.Wait()
		f := fe.mat.Load()
		if f == nil || f.fe != fe {
			t.Fatalf("after the race the entry's form is %+v", f)
		}
		if got, err := e.Send(w.src, w.self, payloads[0]); err != nil || !reflect.DeepEqual(stripTag(got), stripTag(want)) {
			t.Errorf("send after the race: %+v, %v, want %+v", got, err, want)
		}
		if fe.mat.Load() != f {
			t.Error("a later send replaced the published form")
		}
	})
}

// TestOneShotFlowHoldsNoTemplate pins materialize-on-first-reuse: a flow
// sent on once — by one Send or by one whole burst — holds nothing on its
// cache entry, and only the flow sent on again gets a form.
func TestOneShotFlowHoldsNoTemplate(t *testing.T) {
	w := newSharedFlowWorld(t)
	e := w.e
	dep := e.epoch.Load().dep.Addr
	if _, err := e.Send(w.src, w.native, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AppendSendBurst(nil, w.src, w.self, make([][]byte, 8)); err != nil {
		t.Fatal(err)
	}
	for _, dst := range []*topology.Host{w.native, w.self} {
		if fe := w.entry(dst, dep); fe == nil || fe.mat.Load() != nil {
			t.Errorf("flow to %s sent on once: entry %p, want one with nothing materialized", dst.Name, fe)
		}
	}
	if _, err := e.Send(w.src, w.self, nil); err != nil {
		t.Fatal(err)
	}
	if w.entry(w.self, dep).mat.Load() == nil {
		t.Errorf("flow to %s sent on twice holds no form", w.self.Name)
	}
	if w.entry(w.native, dep).mat.Load() != nil {
		t.Errorf("flow to %s got a form from a send to %s", w.native.Name, w.self.Name)
	}
}

// TestFirstReuseAllocsBounded prices the shared form: the send that builds
// and publishes it allocates the form, its header template and its hop
// list and nothing that grows with the path, and every send after that
// allocates nothing.
func TestFirstReuseAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	n := world(t)
	e := newEvo(t, n, Config{})
	e.DeployDomain(n.DomainByName("T0").ASN, 0)
	type pair struct{ src, dst *topology.Host }
	var pairs []pair
	for _, src := range n.Hosts {
		for _, dst := range n.Hosts {
			if src != dst && len(pairs) < 64 {
				pairs = append(pairs, pair{src, dst})
			}
		}
	}
	send := func(p pair) {
		if _, err := e.Send(p.src, p.dst, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range pairs {
		send(p)
	}
	// AllocsPerRun calls once to warm up and then runs times: every call is
	// some flow's second send.
	i := 0
	if allocs := testing.AllocsPerRun(len(pairs)-1, func() { send(pairs[i]); i++ }); allocs < 1 || allocs > 3 {
		t.Errorf("a flow's first reuse allocates %.1f objects, want the form, its template and its hops (1–3)", allocs)
	}
	i = 0
	if allocs := testing.AllocsPerRun(4*len(pairs), func() { send(pairs[i%len(pairs)]); i++ }); allocs != 0 {
		t.Errorf("sends on published forms allocate %.1f objects per op, want 0", allocs)
	}
}
