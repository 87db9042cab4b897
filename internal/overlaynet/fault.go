package overlaynet

import (
	"math/rand"
	"sync"
	"time"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/packet"
	"github.com/evolvable-net/evolve/internal/trace"
)

// FaultConfig parameterizes wire-fault injection. Rates are probabilities
// in [0,1] evaluated independently per packet, also inside a train; a
// zero rate draws nothing from the PRNG, so enabling one fault class never
// perturbs the schedule of another.
type FaultConfig struct {
	// Seed roots every per-link PRNG; identical seeds and identical
	// per-link packet sequences yield identical fault schedules.
	Seed int64
	// DropRate silently discards the packet.
	DropRate float64
	// DupRate writes the packet twice.
	DupRate float64
	// DelayRate defers the write by Delay.
	DelayRate float64
	// Delay is the deferral applied to delayed packets.
	Delay time.Duration
	// DataOnly restricts faults to vn-encap data packets, leaving probes
	// and probe acks clean — useful when a test wants loss without
	// spurious suspicion.
	DataOnly bool
}

// FaultTransport subjects every wire write to seeded drop/duplicate/delay
// faults and hard pairwise partitions, per packet, also inside a train.
// Installed on a Registry via SetFaultTransport; the zero state injects
// nothing.
//
// Determinism: each directed link (src, dst) owns a PRNG seeded from
// Seed and the link's addresses, so a flow's fault schedule depends only
// on the seed and that flow's own packet sequence — concurrent traffic
// on other links cannot reorder its draws.
type FaultTransport struct {
	cfg FaultConfig

	mu       sync.Mutex
	links    map[[2]addr.V4]*rand.Rand
	cut      map[[2]addr.V4]bool
	counters *trace.Counters
}

// NewFaultTransport returns a fault layer with the given configuration.
func NewFaultTransport(cfg FaultConfig) *FaultTransport {
	return &FaultTransport{
		cfg:   cfg,
		links: map[[2]addr.V4]*rand.Rand{},
		cut:   map[[2]addr.V4]bool{},
	}
}

func pairKey(a, b addr.V4) [2]addr.V4 {
	if a > b {
		a, b = b, a
	}
	return [2]addr.V4{a, b}
}

// Partition severs the (undirected) link between a and b: every write in
// either direction is dropped from then on.
func (ft *FaultTransport) Partition(a, b addr.V4) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.cut[pairKey(a, b)] = true
}

// linkRand returns the directed link's PRNG, creating it on first use
// with a seed derived from the configured seed and both addresses.
func (ft *FaultTransport) linkRand(src, dst addr.V4) *rand.Rand {
	key := [2]addr.V4{src, dst}
	r := ft.links[key]
	if r == nil {
		seed := ft.cfg.Seed ^ (int64(src) << 32) ^ int64(dst)
		r = rand.New(rand.NewSource(seed))
		ft.links[key] = r
	}
	return r
}

// apply runs one datagram through the fault schedule, packet by packet
// in train order: partitioned links and drop-lottery losers are discarded
// (counted), a duplicate boards the outgoing train twice, and a delayed
// packet is re-issued alone from a timer. The survivors leave as trains
// of at most trainCap bytes. Probe traffic is exempt from the lottery
// when DataOnly is set.
func (ft *FaultTransport) apply(src, dst addr.V4, wire []byte, write func([]byte)) {
	var out [][]byte // the trains to write, in order
	var cur []byte
	keep := func(pkt []byte) {
		if len(cur) > 0 && len(cur)+len(pkt) > trainCap {
			out = append(out, cur)
			cur = nil
		}
		cur = append(cur, pkt...)
	}
	var delayed [][]byte

	ft.mu.Lock()
	cut := ft.cut[pairKey(src, dst)]
	for rest := wire; len(rest) > 0; {
		var pkt []byte
		pkt, rest = packet.NextInTrain(rest)
		if cut {
			ft.counters.FaultDrop()
			continue
		}
		if ft.cfg.DataOnly && (len(pkt) < 2 || packet.Protocol(pkt[1]) != packet.ProtoVNEncap) {
			keep(pkt)
			continue
		}
		r := ft.linkRand(src, dst)
		drop := ft.cfg.DropRate > 0 && r.Float64() < ft.cfg.DropRate
		dup := ft.cfg.DupRate > 0 && r.Float64() < ft.cfg.DupRate
		delay := ft.cfg.DelayRate > 0 && r.Float64() < ft.cfg.DelayRate
		switch {
		case drop:
			ft.counters.FaultDrop()
		case delay:
			ft.counters.FaultDelay()
			delayed = append(delayed, append([]byte(nil), pkt...))
		default:
			keep(pkt)
			if dup {
				ft.counters.FaultDuplicate()
				keep(pkt)
			}
		}
	}
	ft.mu.Unlock()

	if len(cur) > 0 {
		out = append(out, cur)
	}
	for _, w := range out {
		write(w)
	}
	for _, w := range delayed {
		time.AfterFunc(ft.cfg.Delay, func() { write(w) })
	}
}
