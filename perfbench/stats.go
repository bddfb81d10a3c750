package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean sums in sorted order, so results that arrive in a different order
// (concurrent clients) give the same bits.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range sorted(xs) {
		s += x
	}
	return s / float64(len(xs))
}

// tailPercentiles are the candidates tail reports, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it, with its label ("p90"). With too few samples for even p75 it
// returns the maximum, labelled "max".
func tail(xs []float64) (float64, string) {
	if len(xs) == 0 {
		return 0, "none"
	}
	s := sorted(xs)
	n := float64(len(s))
	for _, p := range tailPercentiles {
		if n*(1-p/100) >= 10 {
			return quantile(s, p/100), fmt.Sprintf("p%g", p)
		}
	}
	return s[len(s)-1], "max"
}

// quantile interpolates linearly between the order statistics of sorted s.
func quantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
