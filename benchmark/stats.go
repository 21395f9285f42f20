//go:build linux

package main

import (
	"math"
	"math/bits"
	"sort"

	"repro/internal/stats"
)

// hist is a log-linear histogram of non-negative nanosecond values: values
// below histSub are exact, above that each octave is cut into histSub
// equal buckets (0.8 % wide at most). It records in O(1) with fixed
// memory, so a 28 s closed loop can time every graph without the sample
// store showing up in peak_rss_mb, and quantile interpolates inside the
// bucket so the reported number is not quantised to bucket edges.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// 40 octaves above histSub cover up to 2^47 ns (about 39 hours).
	histBuckets = 41 * histSub
)

// histBucket maps a value to its bucket index.
func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	shift := bits.Len64(v) - 1 - histSubBits
	b := (shift+1)<<histSubBits + int(v>>uint(shift)) - histSub
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// histBounds returns the inclusive lower edge and the width of a bucket.
func histBounds(b int) (lo, width float64) {
	if b < histSub {
		return float64(b), 1
	}
	shift := uint(b>>histSubBits - 1)
	m := uint64(b&(histSub-1) + histSub)
	return float64(m << shift), float64(uint64(1) << shift)
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histBucket(uint64(ns))]++
	h.n++
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) in nanoseconds, 0 when the
// histogram is empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1) // 0-based fractional rank
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if next := cum + float64(c); rank < next {
			lo, width := histBounds(b)
			return lo + width*(rank-cum+0.5)/float64(c)
		} else {
			cum = next
		}
	}
	lo, width := histBounds(histBuckets - 1)
	return lo + width
}

// merge adds o's samples into h.
func (h *hist) merge(o *hist) {
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.n += o.n
}

// median is 0 for an empty slice.
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the acceptance check computes spreads with. Fewer than two values give
// (x, x).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - 4*j // outside [0,4) where j was clamped: extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median; 0 when
// the median is 0.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// summary is one metric over the measured slices: the median of the
// per-slice values, their quartile spread, and how many slices there were.
type summary struct {
	value  float64
	spread float64
	n      int
}

func summarize(perSlice []float64) summary {
	return summary{value: median(perSlice), spread: spread(perSlice), n: len(perSlice)}
}
