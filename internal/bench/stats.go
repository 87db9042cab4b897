package bench

import (
	"math"
	"sort"
)

// Dist is the summary of one metric's repeated measurements: the median
// with the quartiles beside it and the sample count. Quartiles follow
// Python's statistics.quantiles(values, n=4) (the exclusive method), so
// an interquartile spread taken from them equals the one the acceptance
// driver computes.
type Dist struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// Summarize returns the median and quartiles of values. It does not
// modify values. Fewer than two values have no quartiles: all three
// figures are the single value (or zero for none).
func Summarize(values []float64) Dist {
	n := len(values)
	if n == 0 {
		return Dist{}
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	d := Dist{Median: median(s), N: n}
	if n < 2 {
		d.Q1, d.Q3 = s[0], s[0]
		return d
	}
	d.Q1 = quantileExclusive(s, 1)
	d.Q3 = quantileExclusive(s, 3)
	return d
}

// Median returns the median of values without modifying them.
func Median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return median(s)
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quantileExclusive is the i-th of four cut points of sorted under the
// exclusive method: position i*(n+1)/4, linearly interpolated and
// clamped to the data.
func quantileExclusive(sorted []float64, i int) float64 {
	n := len(sorted)
	j := i * (n + 1) / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := float64(i*(n+1) - j*4)
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}

// disturbedBeyond is how far above the lower quartile of its like a
// value may lie before Undisturbed takes it for disturbed.
const disturbedBeyond = 1.3

// Undisturbed returns the mean of the values that lie within 30 % of
// their lower quartile. The values are times of one piece of work done
// over and over on the sandbox, whose disturbances come in bursts that
// make whatever runs meanwhile take 1.5 to 2 times as long, for a tenth
// to a half of the time: a mean or a median over everything follows how
// much of the time that was. The lower quartile stays among the
// undisturbed values while those are more than a quarter of all; what
// lies far above it is left out, and what is left is averaged, so that
// the machine's smaller changes of speed, which last longer, weigh in
// by their share. It does not modify values.
func Undisturbed(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	limit := s[0] * disturbedBeyond
	if n >= 2 {
		limit = quantileExclusive(s, 1) * disturbedBeyond
	}
	var sum float64
	kept := 0
	for _, v := range s {
		if v > limit {
			break
		}
		sum += v
		kept++
	}
	if kept == 0 {
		return s[0]
	}
	return sum / float64(kept)
}

// Latency summarises pooled per-operation samples: the median and the
// tail the sample can support.
type Latency struct {
	P50 float64 `json:"p50"`
	P99 float64 `json:"p99"`
	// Tail is the value at TailPct, the highest percentile of the ladder
	// 90, 99, 99.9, ... that still has at least ten samples beyond it.
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
	N       int     `json:"n"`
}

// tailLadder lists the candidate tail percentiles as fractions.
var tailLadder = []float64{0.9, 0.99, 0.999, 0.9999, 0.99999}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// SummarizeLatency sorts samples in place and reports their median, the
// 99th percentile and the supported tail. With fewer than 100 samples
// no ladder percentile has ten samples beyond it; Tail then repeats the
// median and TailPct is 50.
func SummarizeLatency(samples []float64) Latency {
	n := len(samples)
	if n == 0 {
		return Latency{}
	}
	sort.Float64s(samples)
	l := Latency{P50: percentile(samples, 0.5), P99: percentile(samples, 0.99), N: n}
	l.Tail, l.TailPct = l.P50, 50
	for _, p := range tailLadder {
		if beyond(n, p) < minBeyond {
			break
		}
		l.Tail, l.TailPct = percentile(samples, p), p*100
	}
	return l
}

// percentile is the nearest-rank percentile of sorted: the smallest
// sample with at least a share p of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)-1]
}

func rank(n int, p float64) int {
	// The small epsilon keeps 0.99*100 from rounding up to rank 100.
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples strictly above the nearest-rank percentile.
func beyond(n int, p float64) int { return n - rank(n, p) }
