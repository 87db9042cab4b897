package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestStretch(t *testing.T) {
	if got := Stretch(30, 10); got != 3 {
		t.Errorf("Stretch(30,10) = %v", got)
	}
	if got := Stretch(10, 10); got != 1 {
		t.Errorf("Stretch equal = %v", got)
	}
	if got := Stretch(0, 0); got != 1 {
		t.Errorf("Stretch(0,0) = %v", got)
	}
	if !math.IsInf(Stretch(5, 0), 1) {
		t.Error("Stretch(5,0) should be +Inf")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Stddev-math.Sqrt(2)) > 1e-9 {
		t.Errorf("stddev = %v", s.Stddev)
	}
	if Summarize(nil).N != 0 {
		t.Error("empty sample should have N=0")
	}
	if !strings.Contains(s.String(), "n=5") {
		t.Errorf("String = %q", s.String())
	}
	if Summarize(nil).String() != "n=0" {
		t.Error("empty String wrong")
	}
}

func TestSummarizeLargeOffset(t *testing.T) {
	// Samples with a huge common offset and a small spread: the naive
	// sumSq/n − mean² variance cancels to 0 at this magnitude; Welford's
	// recurrence must keep the true stddev.
	base := []float64{1, 2, 3, 4, 5}
	want := Summarize(base).Stddev // √2
	const offset = 1e8
	shifted := make([]float64, len(base))
	for i, x := range base {
		shifted[i] = x + offset
	}
	s := Summarize(shifted)
	if math.Abs(s.Stddev-want) > 1e-6 {
		t.Errorf("Stddev at offset %g = %v, want %v", offset, s.Stddev, want)
	}
	if math.Abs(s.Mean-(3+offset)) > 1e-6 {
		t.Errorf("Mean at offset %g = %v", offset, s.Mean)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("input mutated")
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5}, {-5, 10}, {200, 40},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		lo, hi := float64(a%101), float64(b%101)
		if lo > hi {
			lo, hi = hi, lo
		}
		sorted := append([]float64(nil), xs...)
		sortFloats(sorted)
		return Percentile(sorted, lo) <= Percentile(sorted, hi) &&
			s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
