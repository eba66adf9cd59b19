package main

import (
	"fmt"
	"math"
	"slices"
)

// samples is one timing or count series, in the order it was measured.
type samples []float64

// quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between the closest ranks; NaN for an empty series.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := slices.Clone(s)
	slices.Sort(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest percentile of tailPercentiles that has at
// least ten samples beyond it, and whether one exists.
func (s samples) tail() (pct, value float64, ok bool) {
	for _, p := range tailPercentiles {
		if float64(len(s))*(1-p/100) >= 10 {
			return p, s.quantile(p / 100), true
		}
	}
	return 0, 0, false
}

// describe renders a series as "median M, pNN T (n=N)", or without the
// tail when the series is too short to have one.
func (s samples) describe(scale float64) string {
	out := fmt.Sprintf("median %.4g", s.median()*scale)
	if p, v, ok := s.tail(); ok {
		out += fmt.Sprintf(", p%g %.4g", p, v*scale)
	}
	return out + fmt.Sprintf(" (n=%d)", len(s))
}
