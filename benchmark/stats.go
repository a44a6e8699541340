package main

import (
	"math"
	"sort"
	"time"
)

// summary describes one set of timing samples the way the benchmark
// reports every timing: the median, the highest percentile that still
// has at least ten samples beyond it, and the sample count.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	// Tail is the value at percentile TailPct; both are zero when there
	// are fewer than 21 samples (then only the median is reported).
	Tail    float64 `json:"tail,omitempty"`
	TailPct int     `json:"tail_pct,omitempty"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
}

// tailSamples is how many samples must lie beyond a reported percentile.
const tailSamples = 10

func sorted(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for an
// even count), or 0 for no samples.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sorted(vals)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest whole percentile that leaves at
// least tailSamples samples beyond it, and the nearest-rank value there:
// p90 at 100 samples, p99 at 1000. Below 2*tailSamples+1 samples no tail
// is reported (pct 0), because it would sit at or under the median.
func tailPercentile(vals []float64) (pct int, value float64) {
	n := len(vals)
	if n < 2*tailSamples+1 {
		return 0, 0
	}
	s := sorted(vals)
	return 100 * (n - tailSamples) / n, s[n-tailSamples-1]
}

func summarize(vals []float64) summary {
	if len(vals) == 0 {
		return summary{}
	}
	s := sorted(vals)
	out := summary{N: len(s), Median: median(s), Min: s[0], Max: s[len(s)-1]}
	out.TailPct, out.Tail = tailPercentile(s)
	return out
}

// summarizeMS summarizes samples taken in nanoseconds, in milliseconds.
func summarizeMS(ns []float64) summary {
	s := summarize(ns)
	s.Median /= 1e6
	s.Tail /= 1e6
	s.Min /= 1e6
	s.Max /= 1e6
	return s
}

// geomean is the geometric mean of positive values, 0 for none.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

// ratio is a/b, 0 when b is 0 (a layer that did no work reports 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
