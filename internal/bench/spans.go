package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span is one timed call the bench made into a layer. Times are
// nanoseconds since the trace began. Ops is how many operations the
// span covers when more than one: sub-microsecond calls are timed a
// batch at a time, and such a span's per-operation time is its duration
// divided by Ops.
type Span struct {
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Ops    uint32 `json:"ops,omitempty"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Recorder keeps the spans of one goroutine in a buffer allocated up
// front, so recording never allocates while a workload runs. It is not
// safe for concurrent use: each generator goroutine owns one, created
// by Trace.Recorder with its own identifier range. A nil *Recorder
// records nothing, which is how the untraced pass runs the same code.
type Recorder struct {
	spans []Span
	base  uint32
	t0    time.Time
	// Dropped counts spans that did not fit the buffer.
	Dropped uint64
}

// idSpace is the identifier range reserved for each recorder.
const idSpace = 1 << 24

// Trace is the set of recorders of one traced run, sharing one clock.
type Trace struct {
	t0   time.Time
	recs []*Recorder
}

// NewTrace starts a trace; span times count from now.
func NewTrace() *Trace { return &Trace{t0: time.Now()} }

// Recorder returns a new recorder holding up to capacity spans (at most
// idSpace-1, so identifiers of different recorders never collide). A nil
// Trace returns a nil Recorder.
func (t *Trace) Recorder(capacity int) *Recorder {
	if t == nil {
		return nil
	}
	if capacity >= idSpace {
		capacity = idSpace - 1
	}
	r := &Recorder{
		spans: make([]Span, 0, capacity),
		base:  uint32(len(t.recs)) * idSpace,
		t0:    t.t0,
	}
	t.recs = append(t.recs, r)
	return r
}

// Begin opens a span under parent (0 for a root) and returns its
// identifier, or 0 when the recorder is nil or full.
func (r *Recorder) Begin(parent uint32, layer, name string) uint32 {
	return r.BeginOps(parent, layer, name, 1)
}

// BeginOps is Begin for a span that covers ops operations.
func (r *Recorder) BeginOps(parent uint32, layer, name string, ops int) uint32 {
	if r == nil {
		return 0
	}
	if len(r.spans) == cap(r.spans) {
		r.Dropped++
		return 0
	}
	id := r.base + uint32(len(r.spans)) + 1
	s := Span{ID: id, Parent: parent, Name: name, Layer: layer}
	if ops > 1 {
		s.Ops = uint32(ops)
	}
	r.spans = append(r.spans, s)
	// The clock is read last so the span excludes the recorder's own
	// bookkeeping.
	r.spans[len(r.spans)-1].Start = int64(time.Since(r.t0))
	return id
}

// End closes the span id; the zero id is ignored.
func (r *Recorder) End(id uint32) {
	if id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.spans[id-r.base-1].End = now
}

// Spans returns every finished span of the trace, ordered by start.
func (t *Trace) Spans() []Span {
	var out []Span
	for _, r := range t.recs {
		for _, s := range r.spans {
			if s.End != 0 {
				out = append(out, s)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Dropped is the number of spans that did not fit any recorder.
func (t *Trace) Dropped() uint64 {
	var n uint64
	for _, r := range t.recs {
		n += r.Dropped
	}
	return n
}

// SelfTimes returns, per span identifier, the span's duration minus the
// part of its interval that its child spans cover. Overlapping children
// are counted once, and a child reaching outside its parent only
// counts for the part inside. A sampled span whose children were not
// recorded keeps its whole duration as self time.
func SelfTimes(spans []Span) map[uint32]int64 {
	children := map[uint32][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint32]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.Dur() - covered
	}
	return self
}

// spanCostName is the span that calibrates what a span itself costs.
const spanCostName = "bench.span_cost_ns"

// SpanCost measures what recording one span adds to the time it
// reports: the median duration of spans that enclose nothing.
func SpanCost(rec *Recorder) float64 {
	if rec == nil {
		return 0
	}
	first := len(rec.spans)
	for i := 0; i < 512; i++ {
		rec.End(rec.Begin(0, "bench", "span_cost_ns"))
	}
	var d []float64
	for _, s := range rec.spans[first:] {
		d = append(d, float64(s.Dur()))
	}
	return Median(d)
}

// PerOpByName groups the spans' per-operation times, in nanoseconds, by
// "layer.name". cost, the price of a span itself, is taken off every
// span but the calibration spans before dividing by its operations.
func PerOpByName(spans []Span, cost float64) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		k := s.Layer + "." + s.Name
		d := float64(s.Dur())
		if k != spanCostName {
			d -= cost
		}
		if d < 0 {
			d = 0
		}
		if s.Ops > 1 {
			d /= float64(s.Ops)
		}
		out[k] = append(out[k], d)
	}
	return out
}

// WriteSpans writes spans to path as one JSON array, one span a line.
func WriteSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	sep := "["
	for i := range spans {
		if _, err := w.WriteString(sep); err != nil {
			break
		}
		sep = ","
		if err := enc.Encode(&spans[i]); err != nil {
			break
		}
	}
	if len(spans) == 0 {
		_, _ = w.WriteString("[") // a failed write resurfaces at Flush
	}
	_, _ = w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
