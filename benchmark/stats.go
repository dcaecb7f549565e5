package main

import (
	"math"
	"sort"
)

// metric is one reported number: the headline value, its unit, and —
// for sampled metrics — the order statistics behind it.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Median  float64   `json:"median,omitempty"`
	Q1      float64   `json:"q1,omitempty"`
	Q3      float64   `json:"q3,omitempty"`
	Min     float64   `json:"min,omitempty"`
	N       int       `json:"n,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the cut points Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method), so the
// spreads -compare and -selfcheck print are the driver's.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	if len(s) == 0 {
		return 0, 0, 0
	}
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// fastMean averages the fastest share of the samples (rounded up, at
// least one). It is the headline statistic of every timing, because
// what the shared host does to a run only ever adds time:
//
//   - bursts: for 5 to 8 seconds every cell reads 30-50 % slow, which is
//     up to 8 of the 21 repetitions a slow cell gets in a 20 s run. That
//     puts 14 % on a 10 %-trimmed mean, the first headline; the faster
//     half does not see a burst that covers less than half the run.
//   - stretches: for one to three minutes the hand-off-bound cells read
//     15-30 % slow, five or six runs on end. Even then a few repetitions
//     slip through between two disturbances, and the fastest tenth moves
//     a third less than the faster half (rpc_ledger on fine_css: 18 %
//     against 27 %).
//
// It is a mean and not a quantile because a quantile flips between the
// modes of a bimodal cell from run to run, while a mean over a share of
// the samples moves with their mix. Each workload names its share
// (workload.fastShare).
func fastMean(xs []float64, share float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	k := int(math.Ceil(float64(len(s)) * share))
	s = s[:min(max(k, 1), len(s))]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// timing summarises the samples of a timed quantity; share is the
// fastest share its headline averages.
func timing(xs []float64, unit string, share float64) metric {
	q1, q2, q3 := quartiles(xs)
	m := metric{Value: fastMean(xs, share), Unit: unit, Median: q2, Q1: q1, Q3: q3, N: len(xs), Samples: xs}
	if len(xs) > 0 {
		m.Min = sorted(xs)[0]
	}
	return m
}

// level summarises the samples of a count or ratio by their median.
func level(xs []float64, unit string) metric {
	q1, q2, q3 := quartiles(xs)
	return metric{Value: q2, Unit: unit, Median: q2, Q1: q1, Q3: q3, N: len(xs)}
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / q2
}
