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
// left-hand terms, written out for the model's structure, so state
// trajectories match the general-matrix reference in the package tests
// bit for bit.
type Kalman struct {
	x [4]float64  // state
	p [16]float64 // covariance

	// lastInnov is the most recent measurement residual (z - Hx), and
	// lastInnovNorm the residual normalized by the innovation standard
	// deviation — the statistic an intrusion detector would monitor.
	lastInnov     geom.Vec2
	lastInnovNorm geom.Vec2
}

// The constant-velocity model, row-major. Predict and Update compute
// their products with F, F', H and H' in closed form for exactly these
// entries.
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

// Predict advances the state one frame: x = Fx, P = FPF' + Q.
//
// The products are written out for the constant-velocity structure of
// F: each output element is a zero accumulator plus the same non-zero
// terms, in the same order, as the dense product that skips zero
// left-hand entries, so results match the general-matrix reference bit
// for bit. Multiplying by a constant 1 is exact, and a 0*v term added
// to an accumulator (which starts at +0, so never holds -0) leaves it
// unchanged, so entries of F, F' and Q that are 0 or 1 reduce to
// selections and sums.
func (k *Kalman) Predict() {
	x, p := &k.x, &k.p
	x[0], x[1], x[2], x[3] = 0+x[0]+x[2], 0+x[1]+x[3], 0+x[2], 0+x[3]
	// FP adds the velocity rows of P to its position rows.
	var fp [16]float64
	for j := 0; j < 4; j++ {
		fp[j] = 0 + p[j] + p[8+j]
		fp[4+j] = 0 + p[4+j] + p[12+j]
		fp[8+j] = 0 + p[8+j]
		fp[12+j] = 0 + p[12+j]
	}
	// (FP)F' does the same to its columns; Q is diagonal.
	for i := 0; i < 4; i++ {
		r := fp[i*4 : i*4+4]
		p[i*4], p[i*4+1], p[i*4+2], p[i*4+3] = 0+r[0]+r[2], 0+r[1]+r[3], 0+r[2], 0+r[3]
	}
	for i := 0; i < 16; i += 5 {
		p[i] += kfQ[i]
	}
}

// Update incorporates a measured center z with per-axis measurement
// standard deviations (sigmaU, sigmaV) in pixels.
//
// H selects the position entries, so Hx, HP, HPH' and PH' are
// selections and KH is the gain in the first two columns. Products
// whose left operand is data (the S^-1 gain, Ky and (I - KH)P) keep
// the reference's zero-skip, term for term.
func (k *Kalman) Update(z geom.Vec2, sigmaU, sigmaV float64) error {
	x, p := &k.x, &k.p
	// Innovation y = z - Hx and its covariance S = HPH' + R.
	y := [2]float64{z.X - (0 + x[0]), z.Y - (0 + x[1])}
	s := [4]float64{
		(0 + p[0]) + math.Max(sigmaU*sigmaU, 1), 0 + p[1],
		0 + p[4], (0 + p[5]) + math.Max(sigmaV*sigmaV, 1),
	}
	var sInv [4]float64
	if !invert2(&sInv, s) {
		return errSingular
	}
	// Gain K = PH'S^-1 (rows of PH' are the first two columns of P),
	// then x += Ky.
	var gain [8]float64
	for i := 0; i < 4; i++ {
		var g0, g1 float64
		if v := p[i*4]; v != 0 {
			g0 += v * sInv[0]
			g1 += v * sInv[1]
		}
		if v := p[i*4+1]; v != 0 {
			g0 += v * sInv[2]
			g1 += v * sInv[3]
		}
		gain[i*2], gain[i*2+1] = g0, g1
		var gy float64
		if g0 != 0 {
			gy += g0 * y[0]
		}
		if g1 != 0 {
			gy += g1 * y[1]
		}
		x[i] += gy
	}
	// P = (I - KH)P. Row i of I - KH is (I[i][0] - K[i][0],
	// I[i][1] - K[i][1], I[i][2], I[i][3]): two data entries, then the
	// identity, whose single 1 (rows 2 and 3) selects a row of P.
	var pNew [16]float64
	for i := 0; i < 4; i++ {
		var d0, d1, d2, d3 float64
		if a := kfI[i*4] - gain[i*2]; a != 0 {
			d0 += a * p[0]
			d1 += a * p[1]
			d2 += a * p[2]
			d3 += a * p[3]
		}
		if a := kfI[i*4+1] - gain[i*2+1]; a != 0 {
			d0 += a * p[4]
			d1 += a * p[5]
			d2 += a * p[6]
			d3 += a * p[7]
		}
		if i >= 2 {
			r := p[i*4 : i*4+4]
			d0 += r[0]
			d1 += r[1]
			d2 += r[2]
			d3 += r[3]
		}
		pNew[i*4], pNew[i*4+1], pNew[i*4+2], pNew[i*4+3] = d0, d1, d2, d3
	}
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
