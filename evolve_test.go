package evolve

import (
	"strings"
	"testing"
	"time"
)

func TestQuickstartFlow(t *testing.T) {
	net, err := TransitStub(2, 3, 0.3, GenConfig{Seed: 1, HostsPerDomain: 2})
	if err != nil {
		t.Fatal(err)
	}
	evo, err := New(net, Config{Option: Option2, DefaultAS: net.ASNs()[0]})
	if err != nil {
		t.Fatal(err)
	}
	evo.DeployDomain(net.ASNs()[0], 0)
	d, err := evo.Send(net.Hosts[0], net.Hosts[len(net.Hosts)-1], []byte("hello IPv8"))
	if err != nil {
		t.Fatal(err)
	}
	if string(d.Payload) != "hello IPv8" {
		t.Errorf("payload = %q", d.Payload)
	}
	if d.Stretch < 1 {
		t.Errorf("stretch = %.3f", d.Stretch)
	}
}

func TestBuilderFlow(t *testing.T) {
	b := NewBuilder()
	x := b.AddDomain("X")
	z := b.AddDomain("Z")
	rx := b.AddRouter(x, "")
	rz := b.AddRouter(z, "")
	b.Provide(rx, rz, 10)
	hx := b.AddHost(x, rx, "", 1)
	hz := b.AddHost(z, rz, "", 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	evo, err := New(net, Config{Option: Option1, Egress: ProxyInformed})
	if err != nil {
		t.Fatal(err)
	}
	evo.DeployRouter(rx)
	d, err := evo.Send(hz, hx, []byte("up"))
	if err != nil {
		t.Fatal(err)
	}
	if string(d.Payload) != "up" {
		t.Errorf("payload = %q", d.Payload)
	}
}

func TestGenerators(t *testing.T) {
	if _, err := RingOfDomains(4, GenConfig{Seed: 2}); err != nil {
		t.Error(err)
	}
	if _, err := Waxman(6, 0.5, 0.5, GenConfig{Seed: 2}); err != nil {
		t.Error(err)
	}
	if _, err := BarabasiAlbert(6, 1, GenConfig{Seed: 2}); err != nil {
		t.Error(err)
	}
}

func TestAddressHelpers(t *testing.T) {
	a, err := ParseV4("10.1.2.3")
	if err != nil {
		t.Fatal(err)
	}
	v := SelfAddress(a)
	if !v.IsSelf() {
		t.Error("self flag missing")
	}
	p := DomainVNPrefix(7)
	if p.Contains(v) {
		t.Error("self address inside native prefix")
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := Experiments()
	if len(ids) != 21 || ids[0] != "E1" || ids[12] != "E13" || ids[20] != "E21" {
		t.Fatalf("ids = %v", ids)
	}
	tbl, err := RunExperiment("E1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.OK {
		t.Errorf("E1 verdict: %s", tbl.Verdict)
	}
	if _, err := RunExperiment("E99", 1); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("err = %v", err)
	}
}

func TestAdoptionModelFacade(t *testing.T) {
	net, err := TransitStub(2, 2, 0, GenConfig{Seed: 3, HostsPerDomain: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewAdoptionModel(AdoptionParams{UniversalAccess: true}, net)
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	if !m.Outcome().Completed {
		t.Error("UA adoption did not complete")
	}
}

func TestSummarizeFacade(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || s.Mean != 2 {
		t.Errorf("summary = %+v", s)
	}
}

func TestOverlayFacade(t *testing.T) {
	net, err := LineOfDomains(2)
	if err != nil {
		t.Fatal(err)
	}
	evo, err := New(net, Config{Option: Option1})
	if err != nil {
		t.Fatal(err)
	}
	evo.DeployDomain(net.DomainByName("T1").ASN, 0)
	o, err := ProvisionLiveOverlay(evo)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	got, err := o.Send(net.Hosts[0], net.Hosts[1], []byte("hello live IPv8"), 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "hello live IPv8" {
		t.Errorf("payload = %q", got.Payload)
	}
}
