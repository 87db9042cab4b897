// Package metrics provides the measurement primitives the experiment
// harness reports: path stretch and summary statistics.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Stretch is the ratio of an achieved path cost to the optimal path cost.
// By convention Stretch(x, 0) with x > 0 is +Inf and Stretch(0, 0) is 1.
func Stretch(achieved, optimal int64) float64 {
	if optimal == 0 {
		if achieved == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return float64(achieved) / float64(optimal)
}

// Summary holds the descriptive statistics of a sample.
type Summary struct {
	N              int
	Mean, Min, Max float64
	P50, P90, P95  float64
	Stddev         float64
}

// Summarize computes a Summary; an empty sample yields the zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	// Welford's online algorithm: the textbook sumSq/n − mean² form
	// cancels catastrophically when the mean dwarfs the spread (cost
	// samples around 1e8 would report Stddev 0).
	var mean, m2 float64
	for i, x := range s {
		delta := x - mean
		mean += delta / float64(i+1)
		m2 += delta * (x - mean)
	}
	variance := m2 / float64(len(s))
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:      len(s),
		Mean:   mean,
		Min:    s[0],
		Max:    s[len(s)-1],
		P50:    Percentile(s, 50),
		P90:    Percentile(s, 90),
		P95:    Percentile(s, 95),
		Stddev: math.Sqrt(variance),
	}
}

// Percentile returns the p-th percentile (0–100) of a sorted sample using
// nearest-rank with linear interpolation.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// String renders the summary compactly for harness output.
func (s Summary) String() string {
	if s.N == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.3f p50=%.3f p95=%.3f max=%.3f",
		s.N, s.Mean, s.P50, s.P95, s.Max)
}
