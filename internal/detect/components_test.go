package detect

import (
	"math"
	"slices"
	"testing"

	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/sensor"
	"github.com/robotack/robotack/internal/stats"
)

// bfsComponents is the reference labeller the scanline labeller
// replaced: a per-pixel flood fill started from each unvisited
// foreground pixel of a row-major walk over the foreground window.
// Components come out in that walk's discovery order.
//
// One fix to the replaced code: it found neighbors by index (p±1,
// p±W) and dropped the "horizontal" ones that left the row, which in a
// one-pixel-wide raster also dropped the vertical ones (p±1 == p±W).
// Neighbors here are found by coordinates; for W >= 2 the two agree.
func bfsComponents(img *sensor.Image, th float64, minArea int) []component {
	visited := make([]bool, img.W*img.H)
	var comps []component
	var queue []int
	wx0, wy0, wx1, wy1 := img.ForegroundWindow(th)
	for wy := wy0; wy < wy1; wy++ {
		rowOff := wy * img.W
		for wx := wx0; wx < wx1; wx++ {
			start := rowOff + wx
			if visited[start] || img.Pix[start] < th {
				continue
			}
			minX, minY := start%img.W, start/img.W
			maxX, maxY := minX, minY
			area := 0
			queue = append(queue[:0], start)
			visited[start] = true
			for len(queue) > 0 {
				p := queue[len(queue)-1]
				queue = queue[:len(queue)-1]
				x, y := p%img.W, p/img.W
				area++
				minX, maxX = min(minX, x), max(maxX, x)
				minY, maxY = min(minY, y), max(maxY, y)
				for _, nb := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
					nx, ny := x+nb[0], y+nb[1]
					if nx < 0 || ny < 0 || nx >= img.W || ny >= img.H {
						continue
					}
					q := ny*img.W + nx
					if !visited[q] && img.Pix[q] >= th {
						visited[q] = true
						queue = append(queue, q)
					}
				}
			}
			if area >= minArea {
				comps = append(comps, component{
					box:  geom.R(float64(minX), float64(minY), float64(maxX-minX+1), float64(maxY-minY+1)),
					area: area,
				})
			}
		}
	}
	return comps
}

// checkComponents runs the detector's labeller and the reference on img
// and requires the same components, in the same order, bit for bit.
func checkComponents(t *testing.T, d *Detector, img *sensor.Image) []component {
	t.Helper()
	got := d.components(img)
	want := bfsComponents(img, d.cfg.Threshold, d.cfg.MinArea)
	if len(got) != len(want) {
		t.Fatalf("%d components, reference has %d\ngot  %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range want {
		g, w := got[i], want[i]
		same := g.area == w.area
		for _, f := range [][2]float64{{g.box.Min.X, w.box.Min.X}, {g.box.Min.Y, w.box.Min.Y}, {g.box.W, w.box.W}, {g.box.H, w.box.H}} {
			same = same && math.Float64bits(f[0]) == math.Float64bits(f[1])
		}
		if !same {
			t.Fatalf("component %d = %+v, reference %+v", i, g, w)
		}
	}
	return got
}

func TestComponentsMatchReferenceShapes(t *testing.T) {
	cases := []struct {
		name  string
		paint func(img *sensor.Image)
		want  int // component count
	}{
		{"U joins two earlier labels", func(img *sensor.Image) {
			img.FillRect(geom.R(2, 2, 2, 6), 0.9)
			img.FillRect(geom.R(8, 2, 2, 6), 0.9)
			img.FillRect(geom.R(2, 8, 8, 2), 0.9)
		}, 1},
		{"W joins three labels on one run", func(img *sensor.Image) {
			for _, x := range []float64{1, 5, 9} {
				img.FillRect(geom.R(x, 1, 2, 5), 0.9)
			}
			img.FillRect(geom.R(1, 6, 10, 1), 0.9)
		}, 1},
		{"spiral merges through chained roots", func(img *sensor.Image) {
			img.FillRect(geom.R(10, 1, 2, 10), 0.9)
			img.FillRect(geom.R(2, 3, 2, 8), 0.9)
			img.FillRect(geom.R(6, 5, 2, 6), 0.9)
			img.FillRect(geom.R(2, 11, 10, 1), 0.9)
		}, 1},
		{"diagonal contact stays separate", func(img *sensor.Image) {
			img.FillRect(geom.R(4, 4, 3, 3), 0.9)
			img.FillRect(geom.R(7, 7, 3, 3), 0.9)
			img.FillRect(geom.R(1, 7, 3, 3), 0.9)
		}, 3},
		{"checkerboard is all singletons", func(img *sensor.Image) {
			for y := 0; y < 6; y++ {
				for x := (y % 2); x < 6; x += 2 {
					img.Set(x, y, 0.9)
				}
			}
		}, 0},
		{"runs touch every raster edge", func(img *sensor.Image) {
			img.FillRect(geom.R(0, 0, 3, 2), 0.9)
			img.FillRect(geom.R(29, 0, 3, 32), 0.9)
			img.FillRect(geom.R(0, 30, 20, 2), 0.9)
			img.FillRect(geom.R(0, 10, 1, 5), 0.9)
		}, 4},
		{"MinArea drops singletons only", func(img *sensor.Image) {
			img.Set(3, 3, 0.9)
			img.Set(20, 3, 0.9)
			img.Set(21, 3, 0.9)
			img.Set(10, 10, 0.9)
			img.Set(10, 11, 0.9)
		}, 2},
		{"threshold is inclusive", func(img *sensor.Image) {
			img.FillRect(geom.R(5, 5, 4, 4), 0.5)
			img.FillRect(geom.R(15, 5, 4, 4), math.Nextafter(0.5, 0))
		}, 1},
	}
	d := noiselessDetector()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := sensor.NewImage(32, 32)
			img.Clear(0.05)
			tc.paint(img)
			if got := checkComponents(t, d, img); len(got) != tc.want {
				t.Errorf("%d components, want %d", len(got), tc.want)
			}
		})
	}
}

// TestComponentsMatchReferenceFullRaster covers the path where the
// background is not known to be below threshold, so the whole raster
// is scanned.
func TestComponentsMatchReferenceFullRaster(t *testing.T) {
	img := sensor.NewImage(24, 16)
	img.Clear(0.7)
	img.FillRect(geom.R(3, 3, 6, 6), 0.1)
	img.FillRect(geom.R(12, 0, 2, 16), 0.1)
	checkComponents(t, noiselessDetector(), img)
}

// TestComponentsMatchReferenceRandom labels random anti-aliased boxes
// and speckle on reused detector scratch, frame after frame.
func TestComponentsMatchReferenceRandom(t *testing.T) {
	rng := stats.NewRNG(11)
	d := noiselessDetector()
	img := sensor.NewImage(96, 54)
	for frame := 0; frame < 300; frame++ {
		img.Clear(0.05)
		for i := rng.IntN(8); i > 0; i-- {
			r := geom.R(rng.Uniform(-10, 96), rng.Uniform(-10, 54), rng.Uniform(0, 30), rng.Uniform(0, 30))
			img.FillRectAA(r, rng.Uniform(0.3, 1))
		}
		for i := rng.IntN(40); i > 0; i-- {
			img.Set(rng.IntN(96), rng.IntN(54), rng.Uniform(0, 1))
		}
		checkComponents(t, d, img)
	}
}

// FuzzComponents checks the scanline labeller against the flood-fill
// reference on arbitrary rasters. The raster is w x h; raw bytes set
// pixel intensities in row-major order, and each 5-byte group of rects
// paints one anti-aliased box (x, y, w, h in quarter pixels from a
// small negative origin, then intensity).
func FuzzComponents(f *testing.F) {
	// Seeds: the layouts of the detector tests above and in
	// detect_test.go, drawn as rect groups at quarter-pixel scale.
	q := func(x, y, w, h float64) []byte {
		return []byte{byte(x*4 + 16), byte(y*4 + 16), byte(w * 4), byte(h * 4), 230}
	}
	f.Add(uint8(63), uint8(47), []byte{}, q(10, 20, 8, 6), uint8(2))
	f.Add(uint8(63), uint8(47), []byte{}, q(5, 10, 3, 9), uint8(2))
	f.Add(uint8(63), uint8(47), []byte{}, slices.Concat(q(2, 2, 5, 4), q(30, 30, 6, 5), q(58, 40, 1, 1)), uint8(2))
	f.Add(uint8(31), uint8(31), []byte{}, slices.Concat(q(4, 4, 3, 3), q(7, 7, 3, 3)), uint8(2))
	f.Add(uint8(31), uint8(31), []byte{}, slices.Concat(q(4, 4, 4, 4), q(8, 4, 4, 4)), uint8(2))
	f.Add(uint8(31), uint8(31), []byte{}, slices.Concat(q(2, 2, 2, 6), q(8, 2, 2, 6), q(2, 8, 8, 2)), uint8(1))
	f.Add(uint8(15), uint8(7), []byte{200, 0, 200, 0, 200, 0, 200, 0, 0, 200, 0, 200}, []byte{}, uint8(1))
	f.Add(uint8(7), uint8(7), []byte{255, 255, 255, 0, 0, 255, 255, 255}, q(-3, -3, 5.25, 5.75), uint8(0))

	f.Fuzz(func(t *testing.T, w8, h8 uint8, pix, rects []byte, minArea uint8) {
		w, h := int(w8)%64+1, int(h8)%64+1
		img := sensor.NewImage(w, h)
		img.Clear(0.05)
		for i, b := range pix {
			if i >= w*h {
				break
			}
			img.Set(i%w, i/w, float64(b)/255)
		}
		for ; len(rects) >= 5; rects = rects[5:] {
			r := geom.R(float64(rects[0])/4-4, float64(rects[1])/4-4, float64(rects[2])/4, float64(rects[3])/4)
			img.FillRectAA(r, float64(rects[4])/255)
		}
		cfg := DefaultConfig()
		cfg.DisableNoise = true
		cfg.MinArea = int(minArea % 8)
		checkComponents(t, New(cfg, nil), img)
	})
}
