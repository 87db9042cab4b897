package overlaynet

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/packet"
	"github.com/evolvable-net/evolve/internal/trace"
)

func TestFaultPartitionAndHeal(t *testing.T) {
	_, hostA, hostB, _, any := buildChain(t)
	ft := NewFaultTransport(FaultConfig{})
	hostA.reg.SetFaultTransport(ft)

	// Partition the host from the ingress: sends vanish on the wire.
	ft.Partition(hostA.Underlay, u(11))
	if err := hostA.SendVN(any, hostB.VNAddr(), []byte("lost")); err != nil {
		t.Fatal(err)
	}
	if _, err := hostB.WaitInbox(300 * time.Millisecond); err == nil {
		t.Fatal("delivery crossed a partitioned link")
	}
	if snap := hostA.reg.Counters().Snapshot(); snap.FaultDropped != 1 {
		t.Errorf("fault.dropped = %d, want 1", snap.FaultDropped)
	}

	ft.Heal(hostA.Underlay, u(11))
	if err := hostA.SendVN(any, hostB.VNAddr(), []byte("healed")); err != nil {
		t.Fatal(err)
	}
	if got, err := hostB.WaitInbox(waitShort); err != nil || string(got.Payload) != "healed" {
		t.Errorf("after heal: %q %v", got.Payload, err)
	}
}

func TestFaultDuplicateDelivery(t *testing.T) {
	_, hostA, hostB, _, any := buildChain(t)
	ft := NewFaultTransport(FaultConfig{Seed: 1, DupRate: 1})
	hostA.reg.SetFaultTransport(ft)

	if err := hostA.SendVN(any, hostB.VNAddr(), []byte("twice")); err != nil {
		t.Fatal(err)
	}
	// Every hop duplicates, so B sees at least two copies of a plain
	// (unsequenced) send.
	if _, err := hostB.WaitInbox(waitShort); err != nil {
		t.Fatal(err)
	}
	if _, err := hostB.WaitInbox(waitShort); err != nil {
		t.Fatalf("duplicate never arrived: %v", err)
	}
	if snap := hostA.reg.Counters().Snapshot(); snap.FaultDuplicated == 0 {
		t.Error("fault.duplicated not counted")
	}
}

func TestFaultDelay(t *testing.T) {
	_, hostA, hostB, _, any := buildChain(t)
	ft := NewFaultTransport(FaultConfig{Seed: 1, DelayRate: 1, Delay: 50 * time.Millisecond})
	hostA.reg.SetFaultTransport(ft)

	start := time.Now()
	if err := hostA.SendVN(any, hostB.VNAddr(), []byte("late")); err != nil {
		t.Fatal(err)
	}
	if _, err := hostB.WaitInbox(waitShort); err != nil {
		t.Fatal(err)
	}
	// Three tunnel hops, each delayed 50ms.
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Errorf("delivery took %v, expected per-hop delays to accumulate", elapsed)
	}
	if snap := hostA.reg.Counters().Snapshot(); snap.FaultDelayed < 3 {
		t.Errorf("fault.delayed = %d, want >= 3", snap.FaultDelayed)
	}
}

// TestFaultTrainDropsMatchSingleWrites: under a seeded DropRate, packets
// relayed as one train lose exactly the packets that the same packets
// relayed one datagram each lose — the schedule is drawn per packet.
func TestFaultTrainDropsMatchSingleWrites(t *testing.T) {
	const n = 40
	survivors := func(asTrain bool) (kept []byte, dropped uint64) {
		reg := NewRegistry()
		r, err := NewNode(reg, u(50))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		next := u(51)
		sink := wireSink(t, reg, next)
		dst := addr.SelfAddress(u(99))
		r.SetVNRoutes(map[addr.VNPrefix]addr.V4{addr.HostVNPrefix(dst): next})
		reg.SetFaultTransport(NewFaultTransport(FaultConfig{Seed: 9, DropRate: 0.5}))

		var train []byte
		for i := 0; i < n; i++ {
			wire, err := encapVN(packet.V4Header{Src: u(1), Dst: r.Underlay}, packet.VNHeader{Version: 8, Dst: dst}, []byte{byte(i)})
			if err != nil {
				t.Fatal(err)
			}
			if asTrain {
				train = append(train, wire...)
			} else {
				r.receive(wire)
			}
		}
		if asTrain {
			r.receive(train)
		}
		for _, dg := range readTrains(t, sink) {
			for len(dg) > 0 {
				var pkt []byte
				pkt, dg = packet.NextInTrain(dg)
				_, _, payload, err := packet.DecapVNShared(pkt, nil)
				if err != nil {
					t.Fatal(err)
				}
				kept = append(kept, payload...)
			}
		}
		return kept, reg.Counters().Snapshot().FaultDropped
	}
	single, singleDropped := survivors(false)
	train, trainDropped := survivors(true)
	if len(single) == 0 || len(single) == n {
		t.Fatalf("%d of %d packets survived; the drop schedule is vacuous", len(single), n)
	}
	if !bytes.Equal(train, single) || trainDropped != singleDropped || int(singleDropped)+len(single) != n {
		t.Errorf("one train kept %v (%d dropped), single writes kept %v (%d dropped)", train, trainDropped, single, singleDropped)
	}

	// The originated arm: a host's packets boarded as one train lose what
	// the same packets sent one datagram each lose.
	originated := func(asTrain bool) ([]byte, uint64) {
		reg := NewRegistry()
		h, err := NewNode(reg, u(52))
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		h.SetVNAddr(addr.SelfAddress(h.Underlay))
		first := u(53)
		sink := wireSink(t, reg, first)
		reg.SetFaultTransport(NewFaultTransport(FaultConfig{Seed: 9, DropRate: 0.5}))
		for i := 0; i < n; i++ {
			o, err := h.prepare(first, addr.SelfAddress(u(99)), []byte{byte(i)}, nil)
			if err != nil {
				t.Fatal(err)
			}
			h.originate(o)
			if !asTrain {
				h.flushIfIdle()
			}
		}
		h.flushIfIdle()
		return bytes.Join(readPayloads(t, sink), nil), reg.Counters().Snapshot().FaultDropped
	}
	single, singleDropped = originated(false)
	train, trainDropped = originated(true)
	if len(single) == 0 || len(single) == n {
		t.Fatalf("%d of %d originated packets survived; the drop schedule is vacuous", len(single), n)
	}
	if !bytes.Equal(train, single) || trainDropped != singleDropped || int(singleDropped)+len(single) != n {
		t.Errorf("one originated train kept %v (%d dropped), single sends kept %v (%d dropped)", train, trainDropped, single, singleDropped)
	}
}

// buildReliablePair wires two hosts through two anycast ingresses (both
// exiting directly via the underlay option) with reliable mode on and a
// seeded drop schedule.
func buildReliablePair(t *testing.T, seed int64, drop float64) (reg *Registry, hostA, hostB, ingA, ingB *Node, any addr.V4) {
	t.Helper()
	reg = NewRegistry()
	mk := func(last byte) *Node {
		n, err := NewNode(reg, u(last))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	hostA, hostB = mk(1), mk(2)
	ingA, ingB = mk(11), mk(12)
	var err error
	any, err = addr.Option1Address(0)
	if err != nil {
		t.Fatal(err)
	}
	ingA.ServeAnycast(any)
	ingB.ServeAnycast(any)
	hostA.SetAnycastRoute(any, ingA.Underlay, ingB.Underlay)
	hostB.SetAnycastRoute(any, ingA.Underlay, ingB.Underlay)
	hostA.SetVNAddr(addr.SelfAddress(hostA.Underlay))
	hostB.SetVNAddr(addr.SelfAddress(hostB.Underlay))
	rel := ReliableConfig{
		// Loopback RTT is microseconds; a generous timeout means every
		// retransmission is caused by an injected drop, never by timing —
		// the counter schedule depends only on the seed.
		RetransmitBase: 100 * time.Millisecond,
		MaxAttempts:    12,
		JitterSeed:     seed,
	}
	hostA.EnableReliable(rel)
	hostB.EnableReliable(rel)
	reg.SetFaultTransport(NewFaultTransport(FaultConfig{Seed: seed, DropRate: drop}))
	return reg, hostA, hostB, ingA, ingB, any
}

// runReliableFailover drives the acceptance scenario: a sequential acked
// workload over a 10% seeded drop rate with the preferred anycast ingress
// killed mid-run. Returns the delivery tally (payload → copies seen in
// the inbox) and the final counter snapshot.
func runReliableFailover(t *testing.T, seed int64) (map[string]int, trace.Snapshot) {
	t.Helper()
	reg, hostA, hostB, ingA, _, any := buildReliablePair(t, seed, 0.10)

	const msgs = 30
	got := map[string]int{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for len(got) < msgs {
			r, err := hostB.WaitInbox(10 * time.Second)
			if err != nil {
				return
			}
			got[string(r.Payload)]++
		}
	}()
	for i := 0; i < msgs; i++ {
		if i == msgs/2 {
			// The proximity-preferred ingress dies mid-run; subsequent
			// transmissions re-resolve to the next live member.
			ingA.Close()
		}
		if err := hostA.SendVNReliable(any, hostB.VNAddr(), []byte(fmt.Sprintf("msg-%02d", i))); err != nil {
			t.Fatalf("message %d not acked: %v", i, err)
		}
	}
	<-done
	return got, reg.Counters().Snapshot()
}

func TestReliableExactlyOnceUnderDropAndIngressKill(t *testing.T) {
	got, snap := runReliableFailover(t, 42)
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("msg-%02d", i)
		if got[key] != 1 {
			t.Errorf("%s delivered %d times, want exactly once", key, got[key])
		}
	}
	if snap.FaultDropped == 0 {
		t.Error("drop schedule injected nothing; test is vacuous")
	}
	if snap.Retransmits == 0 {
		t.Error("no retransmissions despite drops")
	}
}

func TestReliableCountersDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full failover runs")
	}
	_, snap1 := runReliableFailover(t, 7)
	_, snap2 := runReliableFailover(t, 7)
	// The fault schedule, and everything downstream of it, must replay
	// identically for the same seed.
	checks := []struct {
		name string
		a, b uint64
	}{
		{"fault.dropped", snap1.FaultDropped, snap2.FaultDropped},
		{"live.retransmits", snap1.Retransmits, snap2.Retransmits},
		{"live.dedup_drops", snap1.DedupDrops, snap2.DedupDrops},
		{"live.failover_anycast", snap1.FailoversAnycast, snap2.FailoversAnycast},
	}
	for _, c := range checks {
		if c.a != c.b {
			t.Errorf("%s differs across same-seed runs: %d vs %d", c.name, c.a, c.b)
		}
	}
}

func TestReliableRequiresEnable(t *testing.T) {
	reg := NewRegistry()
	n, err := NewNode(reg, u(1))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	any, _ := addr.Option1Address(0)
	if err := n.SendVNReliable(any, addr.VN{Hi: 1}, nil); !errors.Is(err, ErrReliableDisabled) {
		t.Errorf("err = %v", err)
	}
}

func TestReliableGivesUpWithoutReceiver(t *testing.T) {
	// An ingress that black-holes everything (partitioned): the sender
	// must bound its attempts and surface ErrNotAcked.
	reg := NewRegistry()
	hostA, err := NewNode(reg, u(1))
	if err != nil {
		t.Fatal(err)
	}
	defer hostA.Close()
	ing, err := NewNode(reg, u(11))
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	any, _ := addr.Option1Address(0)
	ing.ServeAnycast(any)
	hostA.SetAnycastRoute(any, ing.Underlay)
	hostA.SetVNAddr(addr.SelfAddress(hostA.Underlay))
	hostA.EnableReliable(ReliableConfig{
		RetransmitBase: 5 * time.Millisecond,
		MaxAttempts:    3,
	})
	ft := NewFaultTransport(FaultConfig{Seed: 3})
	ft.Partition(hostA.Underlay, ing.Underlay)
	reg.SetFaultTransport(ft)

	if err := hostA.SendVNReliable(any, addr.SelfAddress(u(2)), []byte("void")); !errors.Is(err, ErrNotAcked) {
		t.Errorf("err = %v, want ErrNotAcked", err)
	}
	if snap := reg.Counters().Snapshot(); snap.Retransmits != 2 {
		t.Errorf("retransmits = %d, want 2 (3 attempts)", snap.Retransmits)
	}
}
