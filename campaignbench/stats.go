package main

import (
	"math"
	"math/bits"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no values. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile of xs (0 < p <= 1):
// the smallest sample with at least a share p of the samples at or
// below it. xs is not modified; no values give 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-quantile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// Histogram geometry: values below 2^subBits nanoseconds get exact
// buckets; above, every power of two splits into 2^subBits linear
// buckets, so a bucket's midpoint is within 1/128 of any value in it.
const (
	subBits    = 6
	subBuckets = 1 << subBits
	numBuckets = (64 - subBits + 1) * subBuckets
)

// hist is a fixed-size log-linear histogram of durations in
// nanoseconds. It keeps the exact count and sum, so totals and means
// are exact and only quantiles are bucketed.
type hist struct {
	counts [numBuckets]uint32
	n      uint64
	sum    int64
}

func bucketOf(v int64) int {
	if v < subBuckets {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 1 - subBits
	return (shift+1)*subBuckets + int(uint64(v)>>shift) - subBuckets
}

// bucketMid is the midpoint of bucket i in nanoseconds.
func bucketMid(i int) float64 {
	if i < subBuckets {
		return float64(i)
	}
	shift := i/subBuckets - 1
	lower := uint64(subBuckets+i%subBuckets) << shift
	return float64(lower) + float64(uint64(1)<<shift)/2
}

func (h *hist) add(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
	h.sum += ns
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the nearest-rank p-quantile in nanoseconds, as the
// midpoint of the bucket holding that rank.
func (h *hist) quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	r := uint64(rank(int(h.n), p))
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen >= r {
			return bucketMid(i)
		}
	}
	return bucketMid(numBuckets - 1)
}

// tailNs is how long a closed batch of len(done) jobs ran with fewer
// than all of its workers busy: from the completion that left the
// first worker without a job to the last completion. done holds the
// completion times in order; workers is the pool size.
func tailNs(done []int64, workers int) int64 {
	n := len(done)
	if n == 0 {
		return 0
	}
	w := min(workers, n)
	return done[n-1] - done[n-w]
}

// shares divides each layer's self time by the episode total; the
// residual (total minus every layer's self time) is the glue. Layers
// are spans nested inside the episode, so the residual is never
// negative unless the clock went backwards.
func shares(self []int64, total int64) (share []float64, glue int64) {
	glue = total
	for _, s := range self {
		glue -= s
	}
	share = make([]float64, len(self))
	if total == 0 {
		return share, glue
	}
	for i, s := range self {
		share[i] = float64(s) / float64(total)
	}
	return share, glue
}
