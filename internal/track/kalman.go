// Package track implements the multiple-object-tracking (MOT) half of
// the perception system described in §II-B of the paper: per-object
// Kalman filters ("F*" in Fig. 1) with a constant-velocity motion
// model, the Hungarian assignment step ("M"), and the track lifecycle
// manager that ties them together in the tracking-by-detection
// paradigm.
//
// The Kalman filter here is the component the paper identifies as the
// critical vulnerability (§III-B): it models measurement noise as
// zero-mean Gaussian, so an adversary who injects drift within one
// standard deviation of that model is indistinguishable from noise.
package track

import (
	"errors"
	"math"

	"github.com/robotack/robotack/internal/geom"
)

// Kalman is a constant-velocity Kalman filter over an image-space
// bounding-box center. State is [u, v, du, dv] in pixels and pixels per
// frame; time steps are whole camera frames (dt = 1).
//
// The state and covariance are fixed-size row-major arrays inside the
// struct and every intermediate lives on the stack, so NewKalman makes
// one allocation and Predict and Update make none: the filter runs per
// track per frame. The arithmetic is the operation sequence of the
// textbook out-of-place formulation over dense products that skip zero
// left-hand terms, so state trajectories match the general-matrix
// reference in the package tests bit for bit.
type Kalman struct {
	x [4]float64  // state
	p [16]float64 // covariance

	// lastInnov is the most recent measurement residual (z - Hx), and
	// lastInnovNorm the residual normalized by the innovation standard
	// deviation — the statistic an intrusion detector would monitor.
	lastInnov     geom.Vec2
	lastInnovNorm geom.Vec2
}

// The constant-velocity model, row-major.
var (
	kfF = [16]float64{
		1, 0, 1, 0,
		0, 1, 0, 1,
		0, 0, 1, 0,
		0, 0, 0, 1,
	}
	kfFT = [16]float64{
		1, 0, 0, 0,
		0, 1, 0, 0,
		1, 0, 1, 0,
		0, 1, 0, 1,
	}
	kfQ = [16]float64{
		0.15, 0, 0, 0,
		0, 0.15, 0, 0,
		0, 0, 0.08, 0,
		0, 0, 0, 0.08,
	}
	kfH = [8]float64{
		1, 0, 0, 0,
		0, 1, 0, 0,
	}
	kfHT = [8]float64{
		1, 0,
		0, 1,
		0, 0,
		0, 0,
	}
	kfI = [16]float64{
		1, 0, 0, 0,
		0, 1, 0, 0,
		0, 0, 1, 0,
		0, 0, 0, 1,
	}
)

// errSingular reports a singular innovation covariance.
var errSingular = errors.New("kalman update: singular innovation covariance")

// NewKalman creates a filter initialized at the measured center with
// zero velocity and a large initial uncertainty.
func NewKalman(center geom.Vec2) *Kalman {
	k := &Kalman{}
	k.Reset(center)
	return k
}

// Reset re-initializes the filter at a new measured center, exactly as
// NewKalman would (track recycling).
func (k *Kalman) Reset(center geom.Vec2) {
	*k = Kalman{
		x: [4]float64{center.X, center.Y, 0, 0},
		p: [16]float64{
			25, 0, 0, 0,
			0, 25, 0, 0,
			0, 0, 16, 0,
			0, 0, 0, 16,
		},
	}
}

// The products below are fixed-width kernels for dst = a*b, where a is
// n x k and b is k x w for w = 4, 2 or 1, all row-major. Each output
// element starts from a zero accumulator and adds a[i][l]*b[l][j] for
// l = 0..k-1, skipping zero a[i][l]. That is the per-element operation
// sequence of a general i-k-j product, which keeps results
// bit-identical to it; the accumulators live in registers.

func mul4(dst, a, b []float64, n, k int) {
	for i := 0; i < n; i++ {
		var d0, d1, d2, d3 float64
		for l, v := range a[i*k : i*k+k] {
			if v == 0 {
				continue
			}
			r := b[l*4 : l*4+4]
			d0 += v * r[0]
			d1 += v * r[1]
			d2 += v * r[2]
			d3 += v * r[3]
		}
		d := dst[i*4 : i*4+4]
		d[0], d[1], d[2], d[3] = d0, d1, d2, d3
	}
}

func mul2(dst, a, b []float64, n, k int) {
	for i := 0; i < n; i++ {
		var d0, d1 float64
		for l, v := range a[i*k : i*k+k] {
			if v == 0 {
				continue
			}
			r := b[l*2 : l*2+2]
			d0 += v * r[0]
			d1 += v * r[1]
		}
		d := dst[i*2 : i*2+2]
		d[0], d[1] = d0, d1
	}
}

func mul1(dst, a, b []float64, n, k int) {
	for i := 0; i < n; i++ {
		var d float64
		for l, v := range a[i*k : i*k+k] {
			if v == 0 {
				continue
			}
			d += v * b[l]
		}
		dst[i] = d
	}
}

// Predict advances the state one frame: x = Fx, P = FPF' + Q.
func (k *Kalman) Predict() {
	var x [4]float64
	var fp, fpft [16]float64
	mul1(x[:], kfF[:], k.x[:], 4, 4)
	k.x = x
	mul4(fp[:], kfF[:], k.p[:], 4, 4)
	mul4(fpft[:], fp[:], kfFT[:], 4, 4)
	for i := range k.p {
		k.p[i] = fpft[i] + kfQ[i]
	}
}

// Update incorporates a measured center z with per-axis measurement
// standard deviations (sigmaU, sigmaV) in pixels.
func (k *Kalman) Update(z geom.Vec2, sigmaU, sigmaV float64) error {
	r := [4]float64{math.Max(sigmaU*sigmaU, 1), 0, 0, math.Max(sigmaV*sigmaV, 1)}
	// Innovation y = z - Hx and its covariance S = HPH' + R.
	var hx, y [2]float64
	mul1(hx[:], kfH[:], k.x[:], 2, 4)
	y[0], y[1] = z.X-hx[0], z.Y-hx[1]
	var hp [8]float64
	var hpht, s, sInv [4]float64
	mul4(hp[:], kfH[:], k.p[:], 2, 4)
	mul2(hpht[:], hp[:], kfHT[:], 2, 4)
	for i := range s {
		s[i] = hpht[i] + r[i]
	}
	if !invert2(&sInv, s) {
		return errSingular
	}
	// Gain K = PH'S^-1, then x += Ky and P = (I - KH)P.
	var pht, gain [8]float64
	mul2(pht[:], k.p[:], kfHT[:], 4, 4)
	mul2(gain[:], pht[:], sInv[:], 4, 2)
	var gy [4]float64
	mul1(gy[:], gain[:], y[:], 4, 2)
	for i := range k.x {
		k.x[i] += gy[i]
	}
	var kh, ikh [16]float64
	mul4(kh[:], gain[:], kfH[:], 4, 2)
	for i := range ikh {
		ikh[i] = kfI[i] - kh[i]
	}
	var pNew [16]float64
	mul4(pNew[:], ikh[:], k.p[:], 4, 4)
	k.p = pNew

	k.lastInnov = geom.V(y[0], y[1])
	k.lastInnovNorm = geom.V(y[0]/math.Sqrt(s[0]), y[1]/math.Sqrt(s[3]))
	return nil
}

// invert2 inverts the row-major 2x2 matrix a into dst by Gauss-Jordan
// elimination with partial pivoting, the historical general inverse's
// exact steps. It reports false when a is singular.
func invert2(dst *[4]float64, a [4]float64) bool {
	*dst = [4]float64{1, 0, 0, 1}
	for col := 0; col < 2; col++ {
		pivot := col
		maxAbs := math.Abs(a[col*2+col])
		if col == 0 {
			if v := math.Abs(a[2]); v > maxAbs {
				maxAbs, pivot = v, 1
			}
		}
		if maxAbs < 1e-300 {
			return false
		}
		if pivot != col {
			a[0], a[1], a[2], a[3] = a[2], a[3], a[0], a[1]
			dst[0], dst[1], dst[2], dst[3] = dst[2], dst[3], dst[0], dst[1]
		}
		p := a[col*2+col]
		for j := 0; j < 2; j++ {
			a[col*2+j] = a[col*2+j] / p
			dst[col*2+j] = dst[col*2+j] / p
		}
		r := 1 - col // the other row
		f := a[r*2+col]
		if f == 0 {
			continue
		}
		for j := 0; j < 2; j++ {
			a[r*2+j] = a[r*2+j] - f*a[col*2+j]
			dst[r*2+j] = dst[r*2+j] - f*dst[col*2+j]
		}
	}
	return true
}

// Center returns the current state estimate of the box center.
func (k *Kalman) Center() geom.Vec2 { return geom.V(k.x[0], k.x[1]) }

// Velocity returns the estimated center velocity in pixels per frame.
func (k *Kalman) Velocity() geom.Vec2 { return geom.V(k.x[2], k.x[3]) }

// Innovation returns the last measurement residual in pixels.
func (k *Kalman) Innovation() geom.Vec2 { return k.lastInnov }

// InnovationNorm returns the last residual divided by the innovation
// standard deviation per axis. An IDS watching the perception system
// flags updates whose normalized innovation magnitude exceeds ~1
// consistently (paper §III-B, §VI-E).
func (k *Kalman) InnovationNorm() geom.Vec2 { return k.lastInnovNorm }
