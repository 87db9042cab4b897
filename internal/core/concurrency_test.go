package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/trace"
)

// TestTraceTagInterleavedSends is the regression test for the trace-tag
// race: the check used to compare each delivery's tag against the shared
// e.sendSeq, so a second send stamping between another send's stamp and
// check reported a spurious "trace tag corrupted in transit". The tag now
// travels with the delivery; interleaved sends must all verify.
func TestTraceTagInterleavedSends(t *testing.T) {
	n := world(t)
	e := newEvo(t, n, Config{})
	e.DeployDomain(n.DomainByName("T0").ASN, 0)
	src := n.HostsIn(n.DomainByName("S0.0").ASN)[0]
	dst := n.HostsIn(n.DomainByName("S1.1").ASN)[0]
	if err := e.Ready(); err != nil {
		t.Fatal(err)
	}

	const perSender = 200
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if _, err := e.Send(src, dst, nil); err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("sender %d: %v", g, err)
		}
	}
}

// TestConcurrentSendsWithChurn drives ≥64 concurrent Sends against one
// Evolution while another goroutine churns membership (Deploy/Undeploy)
// — the tentpole guarantee, meaningful under -race.
func TestConcurrentSendsWithChurn(t *testing.T) {
	n := world(t)
	e := newEvo(t, n, Config{})
	def := n.DomainByName("T0")
	e.DeployDomain(def.ASN, 0)
	e.DeployDomain(n.DomainByName("T1").ASN, 0)
	if err := e.Ready(); err != nil {
		t.Fatal(err)
	}

	hosts := n.Hosts
	const senders = 64
	var wg sync.WaitGroup
	errCh := make(chan error, senders)
	for g := 0; g < senders; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := hosts[g%len(hosts)]
			dst := hosts[(g+7)%len(hosts)]
			if src.ID == dst.ID {
				dst = hosts[(g+8)%len(hosts)]
			}
			for i := 0; i < 20; i++ {
				d, err := e.Send(src, dst, []byte{byte(g), byte(i)})
				if err != nil {
					// Membership churn can transiently break a route; only
					// corruption or lock bugs are fatal.
					if errors.Is(err, ErrNotDeployed) {
						continue
					}
					errCh <- fmt.Errorf("sender %d: %w", g, err)
					return
				}
				if len(d.Payload) != 2 || d.Payload[0] != byte(g) || d.Payload[1] != byte(i) {
					errCh <- fmt.Errorf("sender %d: payload corrupted: %v", g, d.Payload)
					return
				}
			}
		}()
	}

	// Churn: a stub repeatedly joins and leaves the deployment while the
	// senders run. The default transits stay deployed so routes exist.
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		stub := n.DomainByName("S0.1")
		for i := 0; i < 50; i++ {
			e.DeployDomain(stub.ASN, 0)
			for _, r := range stub.Routers {
				e.UndeployRouter(r)
			}
		}
	}()

	wg.Wait()
	<-churnDone
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestConcurrentReadersDuringRebuild exercises the rlockReady upgrade
// loop: many goroutines hit a dirty Evolution at once and every one must
// observe a fully rebuilt bone.
func TestConcurrentReadersDuringRebuild(t *testing.T) {
	n := world(t)
	e := newEvo(t, n, Config{})
	e.DeployDomain(n.DomainByName("T0").ASN, 0)

	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bone, err := e.Bone()
			if err != nil {
				errCh <- err
				return
			}
			if len(bone.Members()) == 0 {
				errCh <- errors.New("observed an empty bone")
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestUndeployAllThenSendFails: when churn empties the deployment, Sends
// must fail with ErrNotDeployed, not hang or panic. Every single-send
// entry point returns the packet's own error, never a *BatchError.
func TestUndeployAllThenSendFails(t *testing.T) {
	n := world(t)
	e := newEvo(t, n, Config{})
	def := n.DomainByName("T0")
	e.DeployDomain(def.ASN, 0)
	if err := e.Ready(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.EnableProviderChoice(def.ASN); err != nil {
		t.Fatal(err)
	}
	src, dst := n.Hosts[0], n.Hosts[1]
	entryPoints := map[string]func(payload []byte) error{
		"Send":       func(pl []byte) error { _, err := e.Send(src, dst, pl); return err },
		"SendTraced": func(pl []byte) error { _, err := e.SendTraced(src, dst, pl, trace.NewRecorder()); return err },
		"SendVia":    func(pl []byte) error { _, err := e.SendVia(src, dst, def.ASN, pl); return err },
	}
	var be *BatchError
	for name, send := range entryPoints {
		// A per-packet failure on a usable epoch: the payload overflows the
		// IPvN length field.
		err := send(make([]byte, 0x10000))
		if err == nil || errors.As(err, &be) || errors.Is(err, ErrNotDeployed) {
			t.Errorf("%s with an oversized payload: err = %v, want the packet's own encapsulation error", name, err)
		}
	}
	var members []topology.RouterID
	members = append(members, e.Dep.Members()...)
	for _, m := range members {
		e.UndeployRouter(m)
	}
	for name, send := range entryPoints {
		err := send(nil)
		if !errors.Is(err, ErrNotDeployed) || errors.As(err, &be) {
			t.Errorf("%s: err = %v, want ErrNotDeployed itself", name, err)
		}
	}
}
