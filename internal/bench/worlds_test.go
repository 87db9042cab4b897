package bench

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/evolvable-net/evolve/internal/topology"
)

// inputs is everything a seed generates for the in-process workloads,
// rendered without pointers so two worlds can be compared.
type inputs struct {
	topology string
	readers  []string
	cold     []string
	schedule []string
}

func flowNames(flows []flow) []string {
	out := make([]string, len(flows))
	for i, f := range flows {
		out[i] = fmt.Sprintf("%d>%d", f.src.ID, f.dst.ID)
	}
	return out
}

func generate(t *testing.T, seed int64) inputs {
	t.Helper()
	w, err := buildWorld(seed, churnRecipe, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Each input takes its own generator, as the workloads do.
	rng := func() *rand.Rand { return rand.New(rand.NewSource(seed)) }
	schedule, err := churnSchedule(w, rng(), churnRounds)
	if err != nil {
		t.Fatal(err)
	}
	in := inputs{
		topology: fmt.Sprintf("%d routers, %d hosts, %d inter links, first %v, deployed %v",
			len(w.net.Routers), len(w.net.Hosts), len(w.net.Inter), w.net.Inter[0], w.deployed),
		readers: flowNames(readerFlows(w.net, schedule, churnFlows)),
		cold:    flowNames(newPairStream(w.net, rng()).take(500)),
	}
	for _, ev := range schedule {
		in.schedule = append(in.schedule, ev.String())
	}
	return in
}

func TestSeedDrivesEveryInput(t *testing.T) {
	a, again, b := generate(t, 42), generate(t, 42), generate(t, 7)
	if !reflect.DeepEqual(a, again) {
		t.Error("the same seed generated different inputs")
	}
	if a.topology == b.topology {
		t.Errorf("seeds 42 and 7 generated the same topology: %s", a.topology)
	}
	if reflect.DeepEqual(a.cold, b.cold) {
		t.Error("seeds 42 and 7 generated the same cold flow list")
	}
	if reflect.DeepEqual(a.schedule, b.schedule) {
		t.Error("seeds 42 and 7 generated the same event schedule")
	}
	if len(a.readers) != churnFlows || len(a.schedule) != churnRounds*2*int(numEventKinds) {
		t.Errorf("%d reader flows, %d events", len(a.readers), len(a.schedule))
	}
	for i := 0; i < len(a.schedule); i += 2 {
		if fail, repair := a.schedule[i], a.schedule[i+1]; fail == repair {
			t.Errorf("event %d and its repair are the same call: %s", i, fail)
		}
	}
}

// churn's readers are distinct flows, none with an end in a stub whose
// provider link the schedule fails.
func TestReaderFlowsAvoidFailedStubs(t *testing.T) {
	w, err := buildWorld(44, churnRecipe, nil)
	if err != nil {
		t.Fatal(err)
	}
	schedule, err := churnSchedule(w, rand.New(rand.NewSource(44)), churnRounds)
	if err != nil {
		t.Fatal(err)
	}
	flows := readerFlows(w.net, schedule, churnFlows)
	if len(flows) != churnFlows {
		t.Fatalf("%d flows, want %d", len(flows), churnFlows)
	}
	seen := map[flow]bool{}
	for _, f := range flows {
		if seen[f] {
			t.Errorf("flow %d>%d twice", f.src.ID, f.dst.ID)
		}
		seen[f] = true
	}
	cut := 0
	for _, ev := range schedule {
		if ev.kind != interLink {
			continue
		}
		cut++
		for _, f := range flows {
			for _, h := range []*topology.Host{f.src, f.dst} {
				if d := w.net.Domain(h.Domain); d.Name[0] == 'S' && (w.net.DomainOf(ev.link.From) == h.Domain || w.net.DomainOf(ev.link.To) == h.Domain) {
					t.Fatalf("flow %d>%d ends in %s, whose provider link the schedule fails", f.src.ID, f.dst.ID, d.Name)
				}
			}
		}
	}
	if cut == 0 {
		t.Error("the schedule fails no provider link")
	}
}

// fleet_cold builds its world several times and measures on the last;
// the pairs it then sends on must not depend on how many builds came
// before.
func TestColdPairsIgnoreEarlierBuilds(t *testing.T) {
	var lists [2][]string
	for i := range lists {
		_, pairs, err := buildCold(42, nil, make([]byte, smallPayload))
		if err != nil {
			t.Fatal(err)
		}
		lists[i] = flowNames(pairs.take(500))
	}
	if !reflect.DeepEqual(lists[0], lists[1]) {
		t.Error("the second build of fleet_cold sends on other pairs than the first")
	}
}

// A flow cache must never see a cold pair twice, however long the
// stream runs, and every pair crosses domains.
func TestPairStreamNeverRepeats(t *testing.T) {
	w, err := buildWorld(3, liveRecipe, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := len(w.net.Hosts)
	p := newPairStream(w.net, rand.New(rand.NewSource(3)))
	seen := map[string]bool{}
	// Every cross-domain pair exists exactly once among the n*(n-1)
	// ordered pairs; draw two thirds of them.
	for i := 0; i < n*(n-1)*2/3; i++ {
		f := p.next()
		key := fmt.Sprintf("%d>%d", f.src.ID, f.dst.ID)
		if seen[key] {
			t.Fatalf("pair %s repeated after %d draws", key, i)
		}
		seen[key] = true
		if f.src.Domain == f.dst.Domain {
			t.Fatalf("pair %s stays inside one domain", key)
		}
	}
}
