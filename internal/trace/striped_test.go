package trace

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestStripedCountersExact verifies that striping never loses or invents
// counts: 64 goroutines hammer every hot-path counter concurrently and
// the final Snapshot must equal the exact arithmetic total.
func TestStripedCountersExact(t *testing.T) {
	const (
		senders = 64
		perG    = 2000
	)
	var c Counters
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Send()
				c.Deliver()
				c.Redirect(i%2 == 0)
				c.Encap()
				c.Decap()
				c.BoneHops(3)
				c.FlowHit()
				c.FlowMiss()
				c.PayloadBytes(10)
				c.Drop(DropTail)
				c.Ingress(7)
			}
		}()
	}
	wg.Wait()

	s := c.Snapshot()
	total := uint64(senders * perG)
	checks := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"sends", s.Sends, total},
		{"deliveries", s.Deliveries, total},
		{"redirects", s.Redirects, total},
		{"redirect hits", s.RedirectCacheHits, total / 2},
		{"encaps", s.Encaps, total},
		{"decaps", s.Decaps, total},
		{"bone hops", s.BoneHops, 3 * total},
		{"flow hits", s.DeliveryFlowHits, total},
		{"flow misses", s.DeliveryFlowMisses, total},
		{"payload bytes", s.DeliveryPayloadBytes, 10 * total},
		{"drops[tail]", s.DropsByReason[DropTail], total},
		{"ingress[7]", s.IngressByAS[7], total},
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			t.Errorf("%s = %d, want %d", ck.name, ck.got, ck.want)
		}
	}
}

// TestStripedCountersMonotonicUnderLoad is the 64-sender monotonicity
// guarantee: while senders increment concurrently, a poller taking
// sequential Snapshots must never observe any counter decrease, even
// though a Snapshot is not a globally atomic read of all stripes. Each
// stripe is individually monotonic and stripes are loaded with seqcst
// atomics, so a later sum can never be smaller than an earlier one.
// Meaningful under -race.
func TestStripedCountersMonotonicUnderLoad(t *testing.T) {
	const senders = 64
	var c Counters
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				c.Send()
				c.Deliver()
				c.Redirect(true)
				c.BoneHops(2)
				c.PayloadBytes(4)
				c.Drop(DropRelay)
			}
		}()
	}

	var prev Snapshot
	for i := 0; i < 500; i++ {
		s := c.Snapshot()
		if s.Sends < prev.Sends ||
			s.Deliveries < prev.Deliveries ||
			s.Redirects < prev.Redirects ||
			s.RedirectCacheHits < prev.RedirectCacheHits ||
			s.BoneHops < prev.BoneHops ||
			s.DeliveryPayloadBytes < prev.DeliveryPayloadBytes ||
			s.DropsByReason[DropRelay] < prev.DropsByReason[DropRelay] {
			t.Fatalf("snapshot %d went backwards: %+v -> %+v", i, prev, s)
		}
		prev = s
	}
	stop.Store(true)
	wg.Wait()

	final := c.Snapshot()
	if final.Sends < prev.Sends {
		t.Fatalf("final snapshot below last polled: %d < %d", final.Sends, prev.Sends)
	}
	if final.Sends != final.Deliveries {
		t.Fatalf("sends %d != deliveries %d after quiescence", final.Sends, final.Deliveries)
	}
}
