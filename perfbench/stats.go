package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metric is one reported value. A value that could not be measured is
// nil, printed as null, with the reason; it never reads 0.
type metric struct {
	Value  *float64 `json:"value"`
	Unit   string   `json:"unit"`
	reason string
}

func measured(v float64, unit string) metric {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return unmeasured(unit, "not a finite number")
	}
	return metric{Value: &v, Unit: unit}
}

func unmeasured(unit, reason string) metric { return metric{Unit: unit, reason: reason} }

// minBeyond is the number of samples a reported percentile needs above it.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs, or an
// unmeasured metric when fewer than minBeyond samples lie above it.
func percentile(xs []float64, p float64, unit string) metric {
	if len(xs) == 0 {
		return unmeasured(unit, "no samples")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	v := s[rank-1]
	beyond := 0
	for _, x := range s[rank:] {
		if x > v {
			beyond++
		}
	}
	if beyond < minBeyond {
		return unmeasured(unit, fmt.Sprintf("p%g of %d samples has %d beyond it, needs %d", p, len(s), beyond, minBeyond))
	}
	return measured(v, unit)
}

// median returns the middle of xs (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }
