package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestSelfTimeNested(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "send", Layer: "core", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Name: "encap", Layer: "tunnel", Start: 100, End: 300},
		{ID: 3, Parent: 1, Name: "decap", Layer: "tunnel", Start: 300, End: 450},
		{ID: 4, Parent: 2, Name: "serialize", Layer: "packet", Start: 150, End: 250},
		// Overlaps span 3 and reaches past the parent: only the part
		// inside the parent and not already covered counts.
		{ID: 5, Parent: 1, Name: "count", Layer: "trace", Start: 400, End: 1100},
	}
	self := SelfTimes(spans)
	want := map[uint32]int64{
		1: 1000 - (200 + 150 + 550), // children cover [100,450) and [450,1000)
		2: 200 - 100,
		3: 150,
		4: 100,
		5: 700,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

// A sampled span records no children; all of it is self time, and a
// batch span's per-operation time divides by its operations after the
// cost of the span itself is taken off.
func TestSampledSpansAndPerOp(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "send_ns", Layer: "core", Start: 0, End: 640},
		{ID: 2, Name: "send_ns", Layer: "core", Start: 1000, End: 1840},
		{ID: 3, Name: "lookup4_ns", Layer: "rib", Start: 2000, End: 2000 + 40 + 256*50, Ops: 256},
		{ID: 4, Name: "span_cost_ns", Layer: "bench", Start: 0, End: 40},
		{ID: 5, Name: "tiny", Layer: "x", Start: 0, End: 10},
	}
	if self := SelfTimes(spans); self[1] != 640 || self[2] != 840 {
		t.Errorf("sampled spans' self time %v", self)
	}
	by := PerOpByName(spans, 40)
	want := map[string][]float64{
		"core.send_ns":       {600, 800},
		"rib.lookup4_ns":     {50},
		"bench.span_cost_ns": {40}, // the calibration itself is not corrected
		"x.tiny":             {0},  // never negative
	}
	if !reflect.DeepEqual(by, want) {
		t.Errorf("per-op times %v, want %v", by, want)
	}
}

func TestRecorder(t *testing.T) {
	tr := NewTrace()
	a, b := tr.Recorder(2), tr.Recorder(2)
	root := a.Begin(0, "core", "send")
	child := a.BeginOps(root, "tunnel", "encap", 8)
	a.End(child)
	a.End(root)
	if id := a.Begin(0, "core", "overflow"); id != 0 || a.Dropped != 1 {
		t.Errorf("full recorder returned id %d, dropped %d", id, a.Dropped)
	}
	a.End(0) // the zero id is ignored
	other := b.Begin(0, "rib", "lookup")
	b.End(other)
	unfinished := b.Begin(0, "rib", "never_ended")
	if other == root || other == child || unfinished == 0 {
		t.Errorf("identifiers collide across recorders: %d %d %d", root, child, other)
	}
	spans := tr.Spans()
	if len(spans) != 3 || tr.Dropped() != 1 {
		t.Fatalf("got %d spans, %d dropped; want 3 and 1", len(spans), tr.Dropped())
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
		if s.Name == "encap" && (s.Parent != root || s.Ops != 8) {
			t.Errorf("child span %+v, want parent %d and 8 ops", s, root)
		}
	}
	var nilRec *Recorder
	nilRec.End(nilRec.Begin(0, "x", "y")) // a nil recorder records nothing
	if (*Trace)(nil).Recorder(4) != nil {
		t.Error("nil trace made a recorder")
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := WriteSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []Span
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatalf("trace file is not a JSON array of spans: %v", err)
	}
	if !reflect.DeepEqual(back, spans) {
		t.Errorf("trace file round trip: %v != %v", back, spans)
	}
	if err := WriteSpans(path, nil); err != nil {
		t.Fatal(err)
	}
	if buf, _ := os.ReadFile(path); json.Unmarshal(buf, &back) != nil || len(back) != 0 {
		t.Errorf("empty trace file %q", buf)
	}
}
