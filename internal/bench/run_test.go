package bench

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// quick shortens the windows and builds once, so the in-process
// workloads run in about a second each. No sockets are opened.
func quick(seed int64, trace bool) Options {
	return Options{Seed: seed, Windows: 4, Trace: trace, window: 20 * time.Millisecond, setups: 1}
}

// A second seed must run clean: every delivery correct, every
// correctness check passing, every listed metric reported.
func TestSecondSeedRunsClean(t *testing.T) {
	for _, c := range []struct {
		workload string
		trace    bool
	}{
		{FleetWarm, true},
		{FleetBurst, false},
		{FleetCold, true},
		{Churn, true},
	} {
		c := c
		name := c.workload
		if c.trace {
			name += "/traced"
		}
		t.Run(name, func(t *testing.T) {
			res, err := RunWorkload(c.workload, quick(7, c.trace))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%t attempted=%d failed=%d violations=%v", res.Correct, res.Attempted, res.Failed, res.Violations)
			}
			for _, m := range EndToEnd {
				v, ok := res.Metrics[m.Name]
				if !m.ReportedOn(c.workload) {
					continue
				}
				if !ok || (v.Value <= 0 && m.Name != "failed_frac" && m.Name != "allocs_per_pkt") {
					t.Errorf("%s = %v (reported %t)", m.Name, v.Value, ok)
				}
				if v.Unit != m.Unit {
					t.Errorf("%s has unit %q, want %q", m.Name, v.Unit, m.Unit)
				}
			}
			if _, err := res.Contract(); err != nil {
				t.Error(err)
			}
			if !c.trace {
				return
			}
			eventKinds := 0
			for _, m := range PerLayer {
				if !m.ReportedOn(c.workload) {
					continue
				}
				_, ok := res.Layers[m.Name]
				if strings.HasPrefix(m.Name, "core.event_ms.") {
					// Windows this short may not reach all four kinds.
					if ok {
						eventKinds++
					}
					continue
				}
				if !ok {
					t.Errorf("per-layer metric %s is missing", m.Name)
				}
			}
			if c.workload == Churn && eventKinds == 0 {
				t.Error("no core.event_ms.* metric")
			}
			if c.workload == FleetWarm {
				if res.Layers["core.flow_hit_ratio"].Value != 1 || res.ShadowSumNS <= 0 {
					t.Errorf("flow hit ratio %v, shadow sum %v", res.Layers["core.flow_hit_ratio"].Value, res.ShadowSumNS)
				}
			}
			if c.workload == FleetCold && res.Layers["core.flow_hit_ratio"].Value != 0 {
				t.Errorf("fleet_cold hit the flow cache: %v", res.Layers["core.flow_hit_ratio"])
			}
			if c.workload == Churn && res.Layers["core.epochs_per_event"].Value != 1 {
				t.Errorf("epochs per event %v", res.Layers["core.epochs_per_event"].Value)
			}
		})
	}
}

// A failed correctness check must surface in the result.
func TestViolationMakesRunIncorrect(t *testing.T) {
	r := &run{res: &WorkloadResult{Workload: FleetWarm, Metrics: map[string]Value{}}, setups: []float64{1}}
	r.wins = []window{{tally: tally{attempted: 10, delivered: 9, failed: 1}, elapsed: time.Second}}
	if err := r.finish(); err != nil {
		t.Fatal(err)
	}
	if r.res.Correct || r.res.Failed != 1 || len(r.res.Violations) != 1 || r.res.Metrics["failed_frac"].Value != 0.1 {
		t.Errorf("result %+v", r.res)
	}
	if _, err := RunWorkload("no_such_workload", Options{}); err == nil {
		t.Error("an unknown workload ran")
	}
}

// A slice is worth the time per packet delivered in it; a window's rate
// is that of its undisturbed slices, kind by kind, and its total where it
// kept no slices.
func TestSlicesAndWindowRate(t *testing.T) {
	tl := tally{slices: make([]sliceTime, 0, 2)}
	tl.slice(0) // opens the first slice
	tl.slice(0) // nothing delivered: no value
	if len(tl.slices) != 0 {
		t.Fatalf("an empty slice was kept: %v", tl.slices)
	}
	tl.delivered += 4
	tl.slice(1)
	tl.delivered += 4
	tl.slice(1)
	tl.delivered += 4
	tl.slice(0) // beyond the buffer: dropped, not grown
	if len(tl.slices) != 2 || cap(tl.slices) != 2 || tl.slices[0].ns <= 0 || tl.slices[0].kind != 0 || tl.slices[1].kind != 1 {
		t.Fatalf("slices %v (cap %d)", tl.slices, cap(tl.slices))
	}

	w := window{tally: tally{delivered: 1000}, elapsed: time.Second}
	if got := w.pps(); got != 1000 {
		t.Errorf("no slices: pps %v, want the total 1000", got)
	}
	w.sliceNS, w.gens = 250, 2
	if got := w.pps(); got != 8e6 {
		t.Errorf("slices of 250 ns per packet on two generators: pps %v, want 8e6", got)
	}

	// Two kinds of slice, one twice as dear as the other and each with a
	// disturbed slice among its four: (100 + 200) / 2.
	var slices []sliceTime
	for _, ns := range []float64{100, 100, 100, 190} {
		slices = append(slices, sliceTime{0, ns}, sliceTime{1, 2 * ns})
	}
	if got := undisturbedNS(slices); !near(got, 150) {
		t.Errorf("undisturbedNS = %v, want 150", got)
	}
	if got := undisturbedNS(slices[:minSlices-1]); got != 0 {
		t.Errorf("too few slices gave %v", got)
	}

	// Through runWindow: one generator that slices after every delivery.
	win := runWindow(5*time.Millisecond, func(stop *atomic.Bool, t *tally) {
		for !stop.Load() {
			t.slice(0)
			t.attempted++
			t.delivered++
		}
	})
	if win.gens != 1 || win.sliceNS <= 0 || win.pps() < win.totalPPS()/2 {
		t.Errorf("gens %d, %v ns per packet, pps %v against a total of %v", win.gens, win.sliceNS, win.pps(), win.totalPPS())
	}
}
