package bench

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The quartiles must be the ones Python's statistics.quantiles(v, n=4)
// returns, because the acceptance driver computes spreads with it.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	cases := []struct {
		in          []float64
		q1, med, q3 float64
	}{
		// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		// statistics.quantiles([3,1,2], n=4) == [1.0, 2.0, 3.0]
		{[]float64{3, 1, 2}, 1, 2, 3},
		// statistics.quantiles([1,2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		// statistics.quantiles([1.54,1.78,1.6,1.7,1.66], n=4) == [1.57, 1.66, 1.74]
		{[]float64{1.54, 1.78, 1.6, 1.7, 1.66}, 1.57, 1.66, 1.74},
	}
	for _, c := range cases {
		d := Summarize(c.in)
		if !near(d.Q1, c.q1) || !near(d.Median, c.med) || !near(d.Q3, c.q3) || d.N != len(c.in) {
			t.Errorf("Summarize(%v) = %+v, want q1 %v median %v q3 %v", c.in, d, c.q1, c.med, c.q3)
		}
	}
	if d := Summarize([]float64{7}); d.Median != 7 || d.Q1 != 7 || d.Q3 != 7 {
		t.Errorf("single value: %+v", d)
	}
	if d := Summarize(nil); d != (Dist{}) {
		t.Errorf("no values: %+v", d)
	}
}

// The reported tail is the highest ladder percentile with at least ten
// samples beyond it.
func TestLatencyTailRule(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending, so sorting matters
		}
		return s
	}
	cases := []struct {
		n       int
		tailPct float64
		tail    float64
	}{
		{50, 50, 25},           // p90 would leave 5 beyond: fall back to the median
		{100, 90, 90},          // p90 leaves exactly 10, p99 leaves 1
		{109, 90, 99},          // p90 has rank 99 and leaves 10
		{999, 90, 900},         // p99 has rank 990 and leaves 9
		{1000, 99, 990},        // p99 leaves 10, p99.9 leaves 1
		{100000, 99.99, 99990}, // p99.99 leaves 10
	}
	for _, c := range cases {
		l := SummarizeLatency(samples(c.n))
		if !near(l.TailPct, c.tailPct) || l.Tail != c.tail || l.N != c.n {
			t.Errorf("n=%d: tail p%v = %v, want p%v = %v", c.n, l.TailPct, l.Tail, c.tailPct, c.tail)
		}
	}
	l := SummarizeLatency(samples(1000))
	if l.P50 != 500 || l.P99 != 990 {
		t.Errorf("p50 %v p99 %v, want 500 and 990", l.P50, l.P99)
	}
	if l := SummarizeLatency(nil); l != (Latency{}) {
		t.Errorf("no samples: %+v", l)
	}
}

// Undisturbed averages the values near the lower quartile and leaves out
// the disturbed ones far above it, however many of those there are up to
// three quarters of the sample; the median has long moved over to them.
func TestUndisturbedLeavesOutTheDisturbed(t *testing.T) {
	sample := func(disturbed int) []float64 {
		var v []float64
		for i := 0; i < 100; i++ {
			if i < disturbed {
				v = append(v, 170+float64(i%37)) // 1.7 times and more
			} else {
				v = append(v, 100+float64(i%5)) // 100..104, mean 102
			}
		}
		return v
	}
	for _, disturbed := range []int{0, 10, 40, 60, 70} {
		if got := Undisturbed(sample(disturbed)); !near(got, 102) {
			t.Errorf("%d%% disturbed: Undisturbed = %v, want the mean of the rest, 102", disturbed, got)
		}
	}
	if got := Median(sample(60)); got < 170 {
		t.Errorf("60%% disturbed: median %v is still undisturbed; the test shows nothing", got)
	}

	// Two speeds a tenth apart are both kept and weigh in by their share.
	if got := Undisturbed([]float64{100, 110, 100, 110, 100, 110, 100, 200}); !near(got, 730.0/7) {
		t.Errorf("Undisturbed = %v, want 730/7", got)
	}
	// The quartile is Python's: of 1, 2, 3, 10 it is 1.25, so 1 alone is
	// within 30 % of it.
	if got := Undisturbed([]float64{10, 3, 2, 1}); got != 1 {
		t.Errorf("Undisturbed = %v, want 1", got)
	}
	if got := Undisturbed([]float64{7}); got != 7 {
		t.Errorf("one value: Undisturbed = %v", got)
	}
	if got := Undisturbed(nil); got != 0 {
		t.Errorf("no values: Undisturbed = %v", got)
	}
	in := []float64{3, 1, 2, 9, 8, 7, 6, 5}
	Undisturbed(in)
	if in[0] != 3 || in[7] != 5 {
		t.Errorf("Undisturbed reordered its input: %v", in)
	}
}
