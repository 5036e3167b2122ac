package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(xs))
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms is a duration in milliseconds, to the microsecond.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// fiveNum is the per-window summary the JSON document records for every
// windowed metric, so a reader can see the spread the median came from.
type fiveNum struct {
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

func summarize(xs []float64) fiveNum {
	return fiveNum{quantile(xs, 0), quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75), quantile(xs, 1)}
}

// quantileInt32 is quantile (nearest rank) for the latency sample arrays
// (nanoseconds), which are kept as int32 to hold a whole run's batches
// cheaply. It sorts in place.
func quantileInt32(xs []int32, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	return float64(xs[int(q*float64(len(xs)-1))])
}
