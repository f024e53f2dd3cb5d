package main

import (
	"math"
	"sort"
)

// summary is a sample's median with its quartiles and count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and the quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method),
// so that `compare` judges spread the way the benchmark's driver does.
// Fewer than two values have no spread: the quartiles equal the median.
func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return summary{Median: s[0], Q1: s[0], Q3: s[0], N: 1}
	}
	quart := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return summary{Median: quart(2), Q1: quart(1), Q3: quart(3), N: n}
}

func median(xs []float64) float64 { return summarize(xs).Median }

// lowerQuartile returns the value a quarter of the way through the
// sorted xs, interpolated between its neighbours and never below the
// smallest.
func lowerQuartile(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := float64(len(s)-1) / 4
	i := int(at)
	if i+1 == len(s) {
		return s[i]
	}
	return s[i] + (s[i+1]-s[i])*(at-float64(i))
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// percentile returns the p-quantile (0..1) of xs by nearest rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}
