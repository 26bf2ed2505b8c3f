package main

import (
	"math"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Error("median sorted its input")
	}
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{
		{0.50, 50}, {0.99, 99}, {1, 100}, {0.001, 1}, {0.995, 100},
	} {
		if got := percentile(hundred, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if median(nil) != 0 || percentile(nil, 0.5) != 0 {
		t.Error("empty input should give 0")
	}
}

func TestHistExactBelowSubBuckets(t *testing.T) {
	var h hist
	for v := int64(0); v < subBuckets; v++ {
		h.add(v)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 31}, {1, 63}, {0.01, 0}} {
		if got := h.quantile(c.p); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if h.n != subBuckets || h.sum != subBuckets*(subBuckets-1)/2 {
		t.Errorf("count %d sum %d", h.n, h.sum)
	}
}

func TestHistRelativeError(t *testing.T) {
	for _, v := range []int64{64, 65, 127, 128, 1000, 12345, 999_999, 1 << 40, math.MaxInt64} {
		mid := bucketMid(bucketOf(v))
		if rel := math.Abs(mid-float64(v)) / float64(v); rel > 1.0/128 {
			t.Errorf("value %d: bucket midpoint %v off by %.4f", v, mid, rel)
		}
	}
	// Bucket indices grow with the value and stay in range.
	prev := -1
	for v := int64(0); v < 1<<20; v += 37 {
		i := bucketOf(v)
		if i < prev || i >= numBuckets {
			t.Fatalf("bucketOf(%d) = %d after %d", v, i, prev)
		}
		prev = i
	}
}

func TestHistQuantileMatchesSamples(t *testing.T) {
	var h, a, b hist
	var xs []float64
	for i := int64(1); i <= 10_000; i++ {
		v := i * i % 7919 * 1000
		xs = append(xs, float64(v))
		h.add(v)
		if i%2 == 0 {
			a.add(v)
		} else {
			b.add(v)
		}
	}
	a.merge(&b)
	for _, p := range []float64{0.5, 0.9, 0.99} {
		want := percentile(xs, p)
		if got := h.quantile(p); math.Abs(got-want)/want > 1.0/128 {
			t.Errorf("p%v: histogram %v, samples %v", p, got, want)
		}
		if a.quantile(p) != h.quantile(p) {
			t.Errorf("p%v: merged histogram differs", p)
		}
	}
	if a.n != h.n || a.sum != h.sum {
		t.Error("merge lost counts")
	}
}

func TestTailNs(t *testing.T) {
	// Five jobs on two workers: after the fourth completion one worker
	// finds the queue empty, so the tail runs from it to the last.
	done := []int64{10, 20, 30, 40, 55}
	if got := tailNs(done, 2); got != 15 {
		t.Errorf("tail = %d, want 15", got)
	}
	if got := tailNs(done, 1); got != 0 {
		t.Errorf("one worker: tail = %d, want 0", got)
	}
	// More workers than jobs: the pool shrinks to the jobs.
	if got := tailNs([]int64{5, 9}, 4); got != 4 {
		t.Errorf("tail = %d, want 4", got)
	}
	if tailNs(nil, 2) != 0 {
		t.Error("empty batch should have no tail")
	}
}

func TestSharesAccountForEpisode(t *testing.T) {
	self := []int64{300, 500, 100}
	share, glue := shares(self, 1000)
	if glue != 100 {
		t.Errorf("glue = %d, want 100", glue)
	}
	sum := float64(glue) / 1000
	for _, s := range share {
		sum += s
	}
	if math.Abs(sum-1) > 1e-12 || share[1] != 0.5 {
		t.Errorf("shares %v + glue sum to %v", share, sum)
	}
	if share, glue := shares(self, 0); glue != -900 || share[0] != 0 {
		t.Errorf("zero total: shares %v glue %d", share, glue)
	}
}

func TestSpansLayerMetricsAccountForEpisode(t *testing.T) {
	var s spans
	s.layers[layerCapture].add(400)
	s.layers[layerMalware].add(250)
	s.layers[layerOracle].add(50)
	s.layers[layerGlue].add(300)
	s.totalNs = 1000
	s.episodes = []float64{1000}
	m := metrics{}
	s.layerMetrics(m)
	sum := 0.0
	for _, name := range layerNames {
		sum += m[name+".share"].Value
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("layer shares sum to %v", sum)
	}
	if got := m["experiment.glue.self_ms"].Value; got != 300e-6 {
		t.Errorf("glue self = %v ms", got)
	}
}
