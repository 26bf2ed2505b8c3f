package track

import (
	"errors"
	"math"
	"testing"

	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/stats"
)

// refMatrix is the general dense row-major matrix the Kalman filter
// was built on before it moved to fixed-size arrays. It and refKalman
// below are kept verbatim in operation order as the reference the
// fixed-size filter must match bit for bit.
type refMatrix struct {
	rows, cols int
	data       []float64
}

func refNew(rows, cols int) *refMatrix {
	return &refMatrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

func refFromRows(rows [][]float64) *refMatrix {
	m := refNew(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

func refDiag(d ...float64) *refMatrix {
	m := refNew(len(d), len(d))
	for i, v := range d {
		m.Set(i, i, v)
	}
	return m
}

func (m *refMatrix) At(i, j int) float64     { return m.data[i*m.cols+j] }
func (m *refMatrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }
func (m *refMatrix) CopyFrom(o *refMatrix)   { copy(m.data, o.data) }

func (m *refMatrix) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

func (m *refMatrix) T() *refMatrix {
	out := refNew(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

func (m *refMatrix) swapRows(i, j int) {
	for c := 0; c < m.cols; c++ {
		m.data[i*m.cols+c], m.data[j*m.cols+c] = m.data[j*m.cols+c], m.data[i*m.cols+c]
	}
}

func refMulInto(dst, a, b *refMatrix) {
	dst.Zero()
	for i := 0; i < a.rows; i++ {
		for k := 0; k < a.cols; k++ {
			v := a.At(i, k)
			if v == 0 {
				continue
			}
			for j := 0; j < b.cols; j++ {
				dst.data[i*dst.cols+j] += v * b.At(k, j)
			}
		}
	}
}

func refAddInto(dst, a, b *refMatrix) {
	for i := range dst.data {
		dst.data[i] = a.data[i] + b.data[i]
	}
}

func refSubInto(dst, a, b *refMatrix) {
	for i := range dst.data {
		dst.data[i] = a.data[i] - b.data[i]
	}
}

var errRefSingular = errors.New("singular")

// refInverseInto is Gauss-Jordan elimination with partial pivoting.
func refInverseInto(dst, scratch, m *refMatrix) error {
	n := m.rows
	a := scratch
	a.CopyFrom(m)
	dst.Zero()
	for i := 0; i < n; i++ {
		dst.Set(i, i, 1)
	}
	for col := 0; col < n; col++ {
		pivot := col
		maxAbs := math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > maxAbs {
				maxAbs, pivot = v, r
			}
		}
		if maxAbs < 1e-300 {
			return errRefSingular
		}
		if pivot != col {
			a.swapRows(col, pivot)
			dst.swapRows(col, pivot)
		}
		p := a.At(col, col)
		for j := 0; j < n; j++ {
			a.Set(col, j, a.At(col, j)/p)
			dst.Set(col, j, dst.At(col, j)/p)
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
				dst.Set(r, j, dst.At(r, j)-f*dst.At(col, j))
			}
		}
	}
	return nil
}

// refKalman is the general-matrix constant-velocity filter.
type refKalman struct {
	x, p, f, fT, q, h, hT, i4             *refMatrix
	t41, t44a, t44b, t24, t42, gain, r, s *refMatrix
	sInv, sTmp, y21, hx21, gy41, pNew     *refMatrix
	lastInnov, lastInnovNorm              geom.Vec2
}

func newRefKalman(center geom.Vec2) *refKalman {
	k := &refKalman{
		x: refFromRows([][]float64{{center.X}, {center.Y}, {0}, {0}}),
		p: refDiag(25, 25, 16, 16),
		f: refFromRows([][]float64{
			{1, 0, 1, 0},
			{0, 1, 0, 1},
			{0, 0, 1, 0},
			{0, 0, 0, 1},
		}),
		q: refDiag(0.15, 0.15, 0.08, 0.08),
		h: refFromRows([][]float64{
			{1, 0, 0, 0},
			{0, 1, 0, 0},
		}),
		i4:   refDiag(1, 1, 1, 1),
		t41:  refNew(4, 1),
		t44a: refNew(4, 4),
		t44b: refNew(4, 4),
		t24:  refNew(2, 4),
		t42:  refNew(4, 2),
		gain: refNew(4, 2),
		r:    refNew(2, 2),
		s:    refNew(2, 2),
		sInv: refNew(2, 2),
		sTmp: refNew(2, 2),
		y21:  refNew(2, 1),
		hx21: refNew(2, 1),
		gy41: refNew(4, 1),
		pNew: refNew(4, 4),
	}
	k.fT = k.f.T()
	k.hT = k.h.T()
	return k
}

func (k *refKalman) Predict() {
	refMulInto(k.t41, k.f, k.x)
	k.x.CopyFrom(k.t41)
	refMulInto(k.t44a, k.f, k.p)
	refMulInto(k.t44b, k.t44a, k.fT)
	refAddInto(k.p, k.t44b, k.q)
}

func (k *refKalman) Update(z geom.Vec2, sigmaU, sigmaV float64) error {
	k.r.Zero()
	k.r.Set(0, 0, math.Max(sigmaU*sigmaU, 1))
	k.r.Set(1, 1, math.Max(sigmaV*sigmaV, 1))
	refMulInto(k.hx21, k.h, k.x)
	k.y21.Set(0, 0, z.X-k.hx21.At(0, 0))
	k.y21.Set(1, 0, z.Y-k.hx21.At(1, 0))
	refMulInto(k.t24, k.h, k.p)
	refMulInto(k.sTmp, k.t24, k.hT)
	refAddInto(k.s, k.sTmp, k.r)
	if err := refInverseInto(k.sInv, k.sTmp, k.s); err != nil {
		return err
	}
	refMulInto(k.t42, k.p, k.hT)
	refMulInto(k.gain, k.t42, k.sInv)
	refMulInto(k.gy41, k.gain, k.y21)
	refAddInto(k.x, k.x, k.gy41)
	refMulInto(k.t44a, k.gain, k.h)
	refSubInto(k.t44b, k.i4, k.t44a)
	refMulInto(k.pNew, k.t44b, k.p)
	k.p.CopyFrom(k.pNew)
	k.lastInnov = geom.V(k.y21.At(0, 0), k.y21.At(1, 0))
	k.lastInnovNorm = geom.V(
		k.y21.At(0, 0)/math.Sqrt(k.s.At(0, 0)),
		k.y21.At(1, 0)/math.Sqrt(k.s.At(1, 1)),
	)
	return nil
}

// sameBits reports whether two float slices match bit for bit.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func requireSameKalman(t *testing.T, step int, got *Kalman, want *refKalman) {
	t.Helper()
	if !sameBits(got.x[:], want.x.data) || !sameBits(got.p[:], want.p.data) {
		t.Fatalf("step %d: state %v cov %v, reference %v cov %v", step, got.x, got.p, want.x.data, want.p.data)
	}
	gi := []float64{got.lastInnov.X, got.lastInnov.Y, got.lastInnovNorm.X, got.lastInnovNorm.Y}
	wi := []float64{want.lastInnov.X, want.lastInnov.Y, want.lastInnovNorm.X, want.lastInnovNorm.Y}
	if !sameBits(gi, wi) {
		t.Fatalf("step %d: innovation %v, reference %v", step, gi, wi)
	}
}

// TestKalmanMatchesReference drives the fixed-size filter and the
// general-matrix reference through the same random Predict/Update/
// Reset sequences and requires bit-identical state, covariance and
// innovations after every step.
func TestKalmanMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := stats.NewRNG(seed)
		c := geom.V(rng.Uniform(0, 192), rng.Uniform(0, 108))
		got, want := NewKalman(c), newRefKalman(c)
		requireSameKalman(t, 0, got, want)
		for step := 1; step <= 500; step++ {
			switch u := rng.Float64(); {
			case u < 0.45:
				got.Predict()
				want.Predict()
			case u < 0.98:
				z := geom.V(rng.Uniform(-50, 250), rng.Uniform(-50, 150))
				// Sigmas straddle the 1 px floor and reach the
				// pedestrian noise scale.
				su, sv := rng.Uniform(0, 25), rng.Uniform(0, 6)
				if rng.Bernoulli(0.1) {
					su, sv = 0, 0
				}
				gerr, werr := got.Update(z, su, sv), want.Update(z, su, sv)
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("seed %d step %d: error %v, reference %v", seed, step, gerr, werr)
				}
			default:
				c := geom.V(rng.Uniform(0, 192), rng.Uniform(0, 108))
				got.Reset(c)
				// Reset re-initializes exactly as construction does.
				want = newRefKalman(c)
			}
			requireSameKalman(t, step, got, want)
		}
	}
}

// TestInvert2MatchesReference covers the pivoting and singular branches
// of the 2x2 Gauss-Jordan inverse, which Update's floored R never
// reaches.
func TestInvert2MatchesReference(t *testing.T) {
	cases := [][4]float64{
		{4, 1, 1, 3},
		{0, 1, 1, 0},      // pivot swap
		{1, 2, 3, 4},      // pivot swap with elimination
		{2, 0, 0, 5},      // zero off-diagonals skip elimination
		{1, 2, 2, 4},      // singular after elimination
		{0, 0, 0, 0},      // singular first column
		{1e-301, 0, 0, 1}, // below the pivot floor
		{-3, 1e-9, 7, -2},
	}
	rng := stats.NewRNG(9)
	for i := 0; i < 200; i++ {
		cases = append(cases, [4]float64{rng.Normal(0, 10), rng.Normal(0, 10), rng.Normal(0, 10), rng.Normal(0, 10)})
	}
	for _, a := range cases {
		var got [4]float64
		ok := invert2(&got, a)
		m, want, scratch := refNew(2, 2), refNew(2, 2), refNew(2, 2)
		copy(m.data, a[:])
		werr := refInverseInto(want, scratch, m)
		if ok != (werr == nil) {
			t.Fatalf("%v: invertible %v, reference error %v", a, ok, werr)
		}
		if ok && !sameBits(got[:], want.data) {
			t.Fatalf("%v: inverse %v, reference %v", a, got, want.data)
		}
	}
}

// TestKalmanReferenceConstantsMatch pins the package-level model arrays
// to the reference's matrices, transposes included.
func TestKalmanReferenceConstantsMatch(t *testing.T) {
	ref := newRefKalman(geom.V(0, 0))
	for _, c := range []struct {
		name string
		got  []float64
		want *refMatrix
	}{
		{"F", kfF[:], ref.f}, {"F'", kfFT[:], ref.fT}, {"Q", kfQ[:], ref.q},
		{"H", kfH[:], ref.h}, {"H'", kfHT[:], ref.hT}, {"I", kfI[:], ref.i4},
	} {
		if !sameBits(c.got, c.want.data) {
			t.Errorf("%s = %v, reference %v", c.name, c.got, c.want.data)
		}
	}
}

var kalmanSink *Kalman

// TestKalmanAllocs pins the filter's allocation contract: one
// allocation to construct, none to reset, predict or update.
func TestKalmanAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { kalmanSink = NewKalman(geom.V(1, 2)) }); n != 1 {
		t.Errorf("NewKalman: %v allocs, want 1", n)
	}
	k := NewKalman(geom.V(1, 2))
	n := testing.AllocsPerRun(100, func() {
		k.Predict()
		_ = k.Update(geom.V(3, 4), 2, 2)
		k.Reset(geom.V(1, 2))
	})
	if n != 0 {
		t.Errorf("Predict/Update/Reset: %v allocs, want 0", n)
	}
}

// TestKalmanFirstUpdateAfterReset covers the update that runs on the
// freshly reset, diagonal covariance: the cross-axis gain terms are
// exactly 0, so every zero-skip branch of the gain, Ky and (I - KH)P
// is taken. Centers include -0, which the zero accumulators of Hx and
// Fx must fold to +0 as the reference does.
func TestKalmanFirstUpdateAfterReset(t *testing.T) {
	negZero := math.Copysign(0, -1)
	centers := []geom.Vec2{geom.V(0, 0), geom.V(negZero, negZero), geom.V(96.5, 54.25), geom.V(-3, 200)}
	zs := []geom.Vec2{geom.V(0, 0), geom.V(negZero, negZero), geom.V(97, 53), geom.V(-40, 160)}
	sigmas := [][2]float64{{0, 0}, {1, 1}, {4.64, 4.688}, {20.1, 0.5}}
	k := NewKalman(geom.V(1, 1))
	for _, c := range centers {
		// A coasting step straight after Reset sees the raw center.
		k.Reset(c)
		want := newRefKalman(c)
		k.Predict()
		want.Predict()
		requireSameKalman(t, 1, k, want)
		for _, z := range zs {
			for _, sg := range sigmas {
				k.Reset(c)
				want := newRefKalman(c)
				gerr, werr := k.Update(z, sg[0], sg[1]), want.Update(z, sg[0], sg[1])
				if gerr != nil || werr != nil {
					t.Fatalf("center %v z %v sigmas %v: error %v, reference %v", c, z, sg, gerr, werr)
				}
				requireSameKalman(t, 1, k, want)
				for _, g := range []float64{want.gain.At(0, 1), want.gain.At(1, 0), want.gain.At(2, 1), want.gain.At(3, 0)} {
					if g != 0 {
						t.Fatalf("center %v: reference cross-axis gain %v, want exactly 0", c, g)
					}
				}
				k.Predict()
				want.Predict()
				requireSameKalman(t, 2, k, want)
			}
		}
	}
}

// TestKalmanPredictOnlyMatchesReference coasts the filter for 1000
// frames without a measurement, as a track does while its detections
// are missing, from a fresh and from a converged covariance.
func TestKalmanPredictOnlyMatchesReference(t *testing.T) {
	for _, updates := range []int{0, 30} {
		c := geom.V(80, 40)
		got, want := NewKalman(c), newRefKalman(c)
		for i := 0; i < updates; i++ {
			z := geom.V(80+1.5*float64(i), 40-0.25*float64(i))
			got.Predict()
			want.Predict()
			if gerr, werr := got.Update(z, 4.64, 4.688), want.Update(z, 4.64, 4.688); gerr != nil || werr != nil {
				t.Fatalf("update %d: error %v, reference %v", i, gerr, werr)
			}
		}
		for step := 1; step <= 1000; step++ {
			got.Predict()
			want.Predict()
			requireSameKalman(t, step, got, want)
		}
	}
}

// BenchmarkKalman runs one Predict and one Update per op on a filter
// tracking a target in constant-velocity motion.
func BenchmarkKalman(b *testing.B) {
	var zs [64]geom.Vec2
	rng := stats.NewRNG(3)
	for i := range zs {
		zs[i] = geom.V(40+1.5*float64(i)+rng.Normal(0, 2), 60-0.5*float64(i)+rng.Normal(0, 2))
	}
	k := NewKalman(zs[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Predict()
		_ = k.Update(zs[i%len(zs)], 4.64, 4.688)
	}
}
