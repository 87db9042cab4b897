package trace

import (
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/evolvable-net/evolve/internal/topology"
)

// viaBatch counts through a CounterBatch and one FlushTo, the only way
// the send path's batch-only counters move.
func viaBatch(f func(*CounterBatch)) func(*Counters) {
	return func(c *Counters) {
		var b CounterBatch
		f(&b)
		b.FlushTo(c)
	}
}

// bumps moves each scalar counter by exactly one through its exported
// method, keyed by the counter's table name.
var bumps = map[string]func(*Counters){
	"sends":                     (*Counters).Send,
	"deliveries":                (*Counters).Deliver,
	"redirects":                 func(c *Counters) { c.Redirect(false) },
	"redirects.cache_hits":      func(c *Counters) { c.Redirect(true) },
	"delivery.flow_hits":        (*Counters).FlowHit,
	"delivery.flow_misses":      (*Counters).FlowMiss,
	"delivery.payload_bytes":    func(c *Counters) { c.PayloadBytes(1) },
	"delivery.batch_flows":      viaBatch(func(b *CounterBatch) { b.BatchFlows(1) }),
	"delivery.batch_packets":    viaBatch(func(b *CounterBatch) { b.BatchPackets(1) }),
	"delivery.fallback_sends":   viaBatch((*CounterBatch).FallbackSend),
	"delivery.fallback_rescues": viaBatch((*CounterBatch).FallbackRescue),
	"health.probes":             viaBatch((*CounterBatch).FallbackProbe),
	"health.fallback":           viaBatch((*CounterBatch).HealthFallback),
	"health.probation":          viaBatch((*CounterBatch).HealthProbation),
	"health.recovered":          viaBatch((*CounterBatch).HealthRecovered),
	"health.signals":            func(c *Counters) { c.HealthSignal(1) },
	"tunnel.encaps":             (*Counters).Encap,
	"tunnel.decaps":             (*Counters).Decap,
	"bone.hops":                 func(c *Counters) { c.BoneHops(1) },
	"bone.rebuilds":             (*Counters).BoneRebuild,
	"bone.rebuilds_failed":      (*Counters).RebuildFailed,
	"bone.domains_reused":       func(c *Counters) { c.BoneDomains(1, 0) },
	"bone.domains_rebuilt":      func(c *Counters) { c.BoneDomains(0, 1) },
	"epochs":                    (*Counters).Epoch,
	"invalidate.domain":         (*Counters).InvalDomain,
	"invalidate.inter":          (*Counters).InvalInter,
	"live.probes_sent":          (*Counters).ProbeSent,
	"live.probes_missed":        (*Counters).ProbeMissed,
	"live.peers_suspected":      (*Counters).PeerSuspected,
	"live.peers_recovered":      (*Counters).PeerRecovered,
	"live.failover_anycast":     (*Counters).FailoverAnycast,
	"live.failover_route":       (*Counters).FailoverRoute,
	"live.retransmits":          (*Counters).Retransmit,
	"live.dedup_drops":          (*Counters).DedupDrop,
	"live.reconcile_deltas":     func(c *Counters) { c.ReconcileDeltas(1) },
	"live.reconcile_fallbacks":  (*Counters).ReconcileFallback,
	"fault.dropped":             (*Counters).FaultDrop,
	"fault.duplicated":          (*Counters).FaultDuplicate,
	"fault.delayed":             (*Counters).FaultDelay,
}

// alsoMoves names the one counter a bump moves besides its own: a
// redirect served from the cache is still a redirect.
var alsoMoves = map[string]string{"redirects.cache_hits": "redirects"}

// TestCounterTable walks the table: its rows are a permutation of the
// index space over distinct names and Snapshot fields, and one bump
// through a row's method shows as exactly 1 under that row's name (and
// under alsoMoves' entry for it), and 0 under every other, in Snapshot,
// Sub and String alike.
func TestCounterTable(t *testing.T) {
	seenID := map[counterID]bool{}
	seenField := map[*uint64]string{}
	var probe Snapshot
	for _, r := range counterTable {
		if r.name == "" || r.field == nil || r.id >= numCounters {
			t.Fatalf("malformed row %+v", r)
		}
		if seenID[r.id] {
			t.Errorf("cell %d declared twice (second time as %q)", r.id, r.name)
		}
		seenID[r.id] = true
		if prev, dup := seenField[r.field(&probe)]; dup {
			t.Errorf("%q and %q share one Snapshot field", prev, r.name)
		}
		seenField[r.field(&probe)] = r.name
		if bumps[r.name] == nil {
			t.Errorf("no method known to move %q: add it to bumps", r.name)
		}
	}
	if len(bumps) != len(counterTable) {
		t.Errorf("bumps names %d counters, the table %d", len(bumps), len(counterTable))
	}
	// Every uint64 field of Snapshot but the Drops total is some row's.
	scalars := -1
	for i, st := 0, reflect.TypeOf(probe); i < st.NumField(); i++ {
		if st.Field(i).Type.Kind() == reflect.Uint64 {
			scalars++
		}
	}
	if scalars != len(counterTable) {
		t.Errorf("Snapshot has %d scalar counter fields, the table %d rows", scalars, len(counterTable))
	}
	if t.Failed() {
		return
	}

	for _, row := range counterTable {
		var c Counters
		bumps[row.name](&c)
		snap := c.Snapshot()
		delta := snap.Sub((&Counters{}).Snapshot())
		lines := map[string]string{}
		for _, l := range strings.Split(strings.TrimSuffix(snap.String(), "\n"), "\n") {
			k, v, _ := strings.Cut(l, " ")
			lines[k] = v
		}
		if len(lines) != len(counterTable)+1 {
			t.Errorf("%s: String printed %d keys, want the table's %d and drops", row.name, len(lines), len(counterTable))
		}
		for _, r := range counterTable {
			want := uint64(0)
			if r.id == row.id || r.name == alsoMoves[row.name] {
				want = 1
			}
			if got := *r.field(&snap); got != want {
				t.Errorf("bumped %s: Snapshot %s = %d, want %d", row.name, r.name, got, want)
			}
			if got := *r.field(&delta); got != want {
				t.Errorf("bumped %s: Sub %s = %d, want %d", row.name, r.name, got, want)
			}
			if got := lines[r.name]; got != strconv.FormatUint(want, 10) {
				t.Errorf("bumped %s: String %s = %q, want %d", row.name, r.name, got, want)
			}
		}
		if snap.Drops != 0 || len(snap.DropsByReason) != 0 || len(snap.IngressByAS) != 0 {
			t.Errorf("bumped %s: drops or ingress moved: %+v", row.name, snap)
		}
	}
}

// countDrop counts one failed delivery into c the way the send path
// does: through a CounterBatch flushed into c.
func countDrop(c *Counters, r DropReason) {
	var b CounterBatch
	b.Drop(r)
	b.FlushTo(c)
}

// sink is what a CounterBatch and a Counters both offer the send path.
type sink interface {
	Send()
	Deliver()
	Redirect(hit bool)
	FlowHit()
	FlowMiss()
	PayloadBytes(int)
	Ingress(topology.ASN)
	Encap()
	Decap()
	BoneHops(int)
}

// TestCounterBatchDifferential drives one random op sequence through
// CounterBatches (flushed and reset at random points) and through
// Counters directly: the two snapshots must be equal. The batch-only
// counters and the drops have no direct method, so the direct side adds
// to their cell.
func TestCounterBatchDifferential(t *testing.T) {
	shared := []func(sink, int){
		func(s sink, _ int) { s.Send() },
		func(s sink, _ int) { s.Deliver() },
		func(s sink, n int) { s.Redirect(n%2 == 0) },
		func(s sink, _ int) { s.FlowHit() },
		func(s sink, _ int) { s.FlowMiss() },
		func(s sink, n int) { s.PayloadBytes(n - 3) },
		func(s sink, n int) { s.Ingress(topology.ASN(n % 5)) },
		func(s sink, _ int) { s.Encap() },
		func(s sink, _ int) { s.Decap() },
		func(s sink, n int) { s.BoneHops(n - 3) },
	}
	batchOnly := []struct {
		id    counterID
		batch func(*CounterBatch, int)
		byArg bool // counts its argument, not 1
	}{
		{cBatchFlows, (*CounterBatch).BatchFlows, true},
		{cBatchPackets, (*CounterBatch).BatchPackets, true},
		{cFallbackSends, func(b *CounterBatch, _ int) { b.FallbackSend() }, false},
		{cFallbackRescues, func(b *CounterBatch, _ int) { b.FallbackRescue() }, false},
		{cFallbackProbes, func(b *CounterBatch, _ int) { b.FallbackProbe() }, false},
		{cHealthFallback, func(b *CounterBatch, _ int) { b.HealthFallback() }, false},
		{cHealthProbation, func(b *CounterBatch, _ int) { b.HealthProbation() }, false},
		{cHealthRecovered, func(b *CounterBatch, _ int) { b.HealthRecovered() }, false},
	}
	if len(shared)+len(batchOnly) != int(numBatched) { // Redirect moves two, Ingress none
		t.Fatalf("ops cover %d of the %d batched counters", len(shared)+len(batchOnly), numBatched)
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var batched, direct Counters
		var b CounterBatch
		for i := 0; i < 500; i++ {
			n := rng.Intn(100)
			switch k := rng.Intn(len(shared) + len(batchOnly) + 1); {
			case k < len(shared):
				shared[k](&b, n)
				shared[k](&direct, n)
			case k < len(shared)+len(batchOnly):
				o := batchOnly[k-len(shared)]
				o.batch(&b, n)
				if o.byArg {
					direct.add(o.id, uint64(n))
				} else {
					direct.add(o.id, 1)
				}
			default: // one drop, under a reason that may not count
				r := DropReason(n % 12)
				b.Drop(r)
				if r != DropNone && r < numDropReasons {
					direct.add(dropCell(r), 1)
				}
			}
			if rng.Intn(40) == 0 {
				b.FlushTo(&batched)
				b.Reset()
			}
		}
		b.FlushTo(&batched)
		if got, want := batched.Snapshot(), direct.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: batched and direct counting diverge:\nbatched\n%sdirect\n%s", seed, got, want)
		}
	}
}

// TestCounterDocs holds OBSERVABILITY.md's counter reference to the
// table: every table name has a row in the reference, and the reference
// names no scalar counter the table lacks.
func TestCounterDocs(t *testing.T) {
	doc, err := os.ReadFile("../../OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	_, ref, ok := strings.Cut(string(doc), "\n## Counters\n")
	if !ok {
		t.Fatal("OBSERVABILITY.md has no \"## Counters\" section")
	}
	ref, _, ok = strings.Cut(ref, "\n### BGP session counters\n")
	if !ok {
		t.Fatal("OBSERVABILITY.md's counter reference no longer ends at \"### BGP session counters\"")
	}
	key := regexp.MustCompile("`([^`]+)`")
	documented := map[string]int{}
	for _, line := range strings.Split(ref, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		first, _, _ := strings.Cut(line[2:], " |")
		for _, m := range key.FindAllStringSubmatch(first, -1) {
			// drops, drops.<reason> and ingress.as<N> are the two
			// non-scalar families; the table does not carry them.
			if name := m[1]; name != dropsName && !strings.Contains(name, "<") {
				documented[name]++
			}
		}
	}
	for _, r := range counterTable {
		switch documented[r.name] {
		case 0:
			t.Errorf("counter %q has no row in OBSERVABILITY.md's counter reference", r.name)
		case 1:
		default:
			t.Errorf("counter %q is documented %d times", r.name, documented[r.name])
		}
		delete(documented, r.name)
	}
	for name := range documented {
		t.Errorf("OBSERVABILITY.md documents %q, which is not in the counter table", name)
	}
}
