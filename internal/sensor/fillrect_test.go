package sensor

import (
	"math"
	"testing"

	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/stats"
)

// fillRectAARef is the reference FillRectAA replaced by the edge-only
// version: it computes every pixel's coverage as the product of two
// overlap calls.
func fillRectAARef(im *Image, r geom.Rect, v float64) {
	yLo, yHi := r.Min.Y, r.Min.Y+r.H
	xLo, xHi := r.Min.X, r.Min.X+r.W
	y0 := max(int(math.Floor(yLo)), 0)
	y1 := min(int(math.Ceil(yHi)), im.H)
	x0 := max(int(math.Floor(xLo)), 0)
	x1 := min(int(math.Ceil(xHi)), im.W)
	for y := y0; y < y1; y++ {
		cy := overlap(float64(y), float64(y)+1, yLo, yHi)
		row := y * im.W
		for x := x0; x < x1; x++ {
			c := cy * overlap(float64(x), float64(x)+1, xLo, xHi)
			if c <= 0 {
				continue
			}
			p := &im.Pix[row+x]
			*p = (1-c)*(*p) + c*v
		}
	}
	im.markDirty(x0, y0, x1, y1)
}

// sameImage requires two rasters and their dirty windows to match bit
// for bit.
func sameImage(t *testing.T, got, want *Image, what string) {
	t.Helper()
	for i := range want.Pix {
		if math.Float64bits(got.Pix[i]) != math.Float64bits(want.Pix[i]) {
			t.Fatalf("%s: pixel (%d,%d) = %v, reference %v", what, i%want.W, i/want.W, got.Pix[i], want.Pix[i])
		}
	}
	gw := [4]int{got.dx0, got.dy0, got.dx1, got.dy1}
	ww := [4]int{want.dx0, want.dy0, want.dx1, want.dy1}
	if gw != ww {
		t.Fatalf("%s: dirty window %v, reference %v", what, gw, ww)
	}
}

func TestFillRectAAMatchesReferenceEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		r    geom.Rect
	}{
		{"interior sub-pixel", geom.R(3.25, 2.5, 6.5, 4.75)},
		{"integer aligned", geom.R(2, 1, 5, 3)},
		{"clipped right and bottom", geom.R(14.3, 8.6, 9, 7)},
		{"negative origin", geom.R(-2.7, -1.2, 5.1, 4.4)},
		{"entirely left of the raster", geom.R(-9.5, 2, 3, 3)},
		{"one column, x1 == x0+1", geom.R(4.2, 3.1, 0.5, 2.6)},
		{"one integer column", geom.R(5, 3, 1, 2)},
		{"two columns", geom.R(4.6, 3, 0.9, 2)},
		{"zero width", geom.R(6.5, 3, 0, 3)},
		{"zero height", geom.R(3, 4.5, 5, 0)},
		{"negative width", geom.R(7.8, 3, -0.4, 3)},
		{"covers the raster", geom.R(-1.5, -1.5, 40, 40)},
	}
	for _, tc := range cases {
		got, want := NewImage(16, 12), NewImage(16, 12)
		got.Clear(0.05)
		want.Clear(0.05)
		for _, v := range []float64{0.9, 0.3} { // over fresh and painted pixels
			got.FillRectAA(tc.r, v)
			fillRectAARef(want, tc.r, v)
			sameImage(t, got, want, tc.name)
		}
	}
}

func TestFillRectAAMatchesReferenceRandom(t *testing.T) {
	rng := stats.NewRNG(3)
	got, want := NewImage(40, 24), NewImage(40, 24)
	for frame := 0; frame < 200; frame++ {
		got.Clear(0.05)
		want.Clear(0.05)
		for i := 0; i < 6; i++ {
			r := geom.R(rng.Uniform(-8, 44), rng.Uniform(-8, 28), rng.Uniform(-1, 20), rng.Uniform(-1, 14))
			if rng.Bernoulli(0.3) { // quarter-pixel grid: exact edges
				r = geom.R(math.Round(r.Min.X*4)/4, math.Round(r.Min.Y*4)/4, math.Round(r.W*4)/4, math.Round(r.H*4)/4)
			}
			v := rng.Uniform(0, 1)
			got.FillRectAA(r, v)
			fillRectAARef(want, r, v)
		}
		sameImage(t, got, want, "random frame")
	}
}
