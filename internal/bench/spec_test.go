package bench

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// BENCHMARK.json at the root of the repository is generated from this
// package's tables (`bench manifest`); the two must not drift apart.
func TestManifestMatchesTables(t *testing.T) {
	buf, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if want := BuildManifest(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables; regenerate it with `go run ./cmd/bench manifest`\n got %+v\nwant %+v", got, want)
	}
}

// The limits the acceptance driver puts on BENCHMARK.json.
func TestManifestWithinContract(t *testing.T) {
	m := BuildManifest()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is not allowed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d workloads", len(m.Workloads))
	}
	for _, w := range m.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 || len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(m.EndToEnd), len(m.PerLayer))
	}
	setup, largest := 0.0, 0.0
	for _, e := range m.EndToEnd {
		check(e.Name)
		if e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("%s: bound %v", e.Name, e.Bound)
			continue
		}
		if *e.Bound > largest {
			largest = *e.Bound
		}
		if e.Name == "setup_s" {
			setup = *e.Bound
			if e.Unit != "s" || e.Better != "lower" {
				t.Errorf("setup_s is %s, %s", e.Unit, e.Better)
			}
		}
	}
	if setup == 0 || setup < largest {
		t.Errorf("setup_s has bound %v, the largest is %v", setup, largest)
	}
	for _, e := range append(append([]ManifestMetric(nil), m.EndToEnd...), m.PerLayer...) {
		if !unit.MatchString(e.Unit) {
			t.Errorf("%s: unit %q is not allowed", e.Name, e.Unit)
		}
		if e.Better != "lower" && e.Better != "higher" {
			t.Errorf("%s: better %q", e.Name, e.Better)
		}
	}
	for _, e := range m.PerLayer {
		check(e.Name)
		if e.Bound != nil {
			t.Errorf("%s: a per-layer metric has no bound", e.Name)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
}

// The tables name the issue's six workloads and 13 end-to-end metrics
// and live_heap_mb, every end-to-end metric has a bound, and every
// per-layer metric says what it should move.
func TestTablesAreComplete(t *testing.T) {
	if len(Workloads) != 6 || len(EndToEnd) != 14 {
		t.Errorf("%d workloads and %d end-to-end metrics, want 6 and 14", len(Workloads), len(EndToEnd))
	}
	known := map[string]bool{}
	for _, w := range Workloads {
		known[w.Name] = true
	}
	for _, m := range append(append([]Metric(nil), EndToEnd...), PerLayer...) {
		for _, w := range m.On {
			if !known[w] {
				t.Errorf("%s names unknown workload %q", m.Name, w)
			}
		}
	}
	for _, m := range EndToEnd {
		if m.Bound == 0 && m.AbsBound == 0 {
			t.Errorf("%s has no bound", m.Name)
		}
	}
	for _, m := range PerLayer {
		if m.Moves == "" {
			t.Errorf("%s does not say what it moves", m.Name)
		}
	}
}
