package overlaynet

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/evolvable-net/evolve/internal/addr"
)

// TestLiveSoakFailover is the live-plane endurance scenario: 64 reliable
// senders push through a two-ingress bone chain with a 10% seeded drop
// rate while the preferred anycast ingress and then the mid-chain router
// are killed mid-run; past the dead mid-chain router the ingress exits
// each packet by the receiver's carried address. Every send that returns
// acked must be delivered exactly once. Run under -race in CI (the
// live-soak job); on failure the counter snapshot is written to
// LIVE_SOAK_ARTIFACT_DIR for upload.
func TestLiveSoakFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	reg := NewRegistry()
	mk := func(last byte) *Node {
		n, err := NewNode(reg, u(last))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}

	any, err := addr.Option1Address(0)
	if err != nil {
		t.Fatal(err)
	}
	// Bone: two ingresses → mid-chain m1 → exit → receiver.
	ingA, ingB := mk(101), mk(102)
	m1 := mk(103)
	exit := mk(105)
	receiver := mk(106)
	receiver.SetVNAddr(addr.SelfAddress(receiver.Underlay))

	selfAll := addr.MakeVNPrefix(addr.SelfAddress(0), 1)
	for _, ing := range []*Node{ingA, ingB} {
		ing.ServeAnycast(any)
		ing.SetVNRoutes(map[addr.VNPrefix]addr.V4{selfAll: m1.Underlay})
	}
	m1.SetVNRoutes(map[addr.VNPrefix]addr.V4{selfAll: exit.Underlay})
	// exit has no bone route: it leaves via the underlay option — both
	// toward the receiver and for acks exiting back to each sender.
	receiver.SetAnycastRoute(any, ingA.Underlay, ingB.Underlay)

	// The acked round trip crosses ~8 faulty writes, so one attempt
	// fails with probability ≈ 1-0.9⁸ ≈ 0.57; the attempt budget has to
	// be deep enough that exhaustion stays a tail event across 512
	// messages (and when it does happen, the contract below is the
	// acked-implies-exactly-once one, not all-sends-succeed).
	rel := ReliableConfig{
		RetransmitBase: 30 * time.Millisecond,
		RetransmitMax:  300 * time.Millisecond,
		MaxAttempts:    20,
		JitterSeed:     99,
	}
	receiver.EnableReliable(rel)

	const senders = 64
	const perSender = 8
	nodes := make([]*Node, senders)
	for i := range nodes {
		// Sender underlays sit in a distinct octet range from the bone.
		n, err := NewNode(reg, addr.V4FromOctets(10, 0, byte(1+i/200), byte(1+i%200)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		n.SetVNAddr(addr.SelfAddress(n.Underlay))
		n.SetAnycastRoute(any, ingA.Underlay, ingB.Underlay)
		n.EnableReliable(rel)
		nodes[i] = n
	}

	reg.SetFaultTransport(NewFaultTransport(FaultConfig{Seed: 99, DropRate: 0.10}))

	// Tally every delivery concurrently with the workload; the inbox is
	// smaller than the total message count and must be drained live.
	// The consumer exits once the senders have finished AND the inbox
	// has stayed quiet long enough for stragglers to land.
	tally := map[string]int{}
	var tallyMu sync.Mutex
	consumerDone := make(chan struct{})
	sendersDone := make(chan struct{})
	total := senders * perSender
	go func() {
		defer close(consumerDone)
		for {
			r, err := receiver.WaitInbox(500 * time.Millisecond)
			if err != nil {
				select {
				case <-sendersDone:
					return
				default:
					continue
				}
			}
			tallyMu.Lock()
			tally[string(r.Payload)]++
			tallyMu.Unlock()
		}
	}()

	// Kill the preferred ingress at 1/3 of the run and the mid-chain
	// router at 2/3, gated on acked progress so the failures always land
	// mid-workload.
	var acked sync.WaitGroup
	progress := make(chan struct{}, total)
	go func() {
		for i := 0; i < total; i++ {
			<-progress
			switch i {
			case total / 3:
				ingA.Close()
			case 2 * total / 3:
				m1.Close()
			}
		}
	}()

	// ackedOK[s*perSender+i] records whether sender s's message i came
	// back acked; indices are disjoint per goroutine. ErrNotAcked after
	// a full attempt budget is a legal (tail-probability) outcome — the
	// contract is acked ⇒ delivered exactly once, unacked ⇒ at most
	// once — but any other error is a hard failure.
	ackedOK := make([]bool, total)
	errs := make(chan error, total)
	for s := 0; s < senders; s++ {
		acked.Add(1)
		go func(s int) {
			defer acked.Done()
			n := nodes[s]
			for i := 0; i < perSender; i++ {
				payload := []byte(fmt.Sprintf("s%02d-m%d", s, i))
				err := n.SendVNReliable(any, receiver.VNAddr(), payload)
				switch {
				case err == nil:
					ackedOK[s*perSender+i] = true
				case errors.Is(err, ErrNotAcked):
					// attempt budget exhausted under the drop schedule
				default:
					errs <- fmt.Errorf("sender %d msg %d: %w", s, i, err)
				}
				progress <- struct{}{}
			}
		}(s)
	}
	acked.Wait()
	close(errs)
	close(sendersDone)
	for err := range errs {
		t.Error(err)
	}
	<-consumerDone

	tallyMu.Lock()
	defer tallyMu.Unlock()
	ackedCount := 0
	for s := 0; s < senders; s++ {
		for i := 0; i < perSender; i++ {
			key := fmt.Sprintf("s%02d-m%d", s, i)
			if ackedOK[s*perSender+i] {
				ackedCount++
				if tally[key] != 1 {
					t.Errorf("%s acked but delivered %d times, want exactly once", key, tally[key])
				}
			} else if tally[key] > 1 {
				t.Errorf("%s unacked yet delivered %d times, want at most once", key, tally[key])
			}
		}
	}
	// Near-total ack coverage keeps the exactly-once assertion from
	// going vacuous if the fault schedule were ever mis-wired.
	if ackedCount < total*9/10 {
		t.Errorf("only %d/%d messages acked; failover is not working", ackedCount, total)
	}
	snap := reg.Counters().Snapshot()
	if snap.FaultDropped == 0 || snap.Retransmits == 0 {
		t.Errorf("soak injected nothing (dropped %d, retransmits %d); scenario is vacuous",
			snap.FaultDropped, snap.Retransmits)
	}
	if t.Failed() {
		dumpSoakCounters(t, snap.String())
	}
}

// dumpSoakCounters preserves the counter snapshot for CI artifact upload
// when the soak fails.
func dumpSoakCounters(t *testing.T, s string) {
	t.Logf("counter snapshot:\n%s", s)
	dir := os.Getenv("LIVE_SOAK_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifact dir: %v", err)
		return
	}
	path := filepath.Join(dir, "live_soak_counters.txt")
	if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
		t.Logf("artifact write: %v", err)
		return
	}
	t.Logf("counter snapshot written to %s", path)
}
