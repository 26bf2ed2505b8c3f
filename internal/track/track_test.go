package track

import (
	"math"
	"testing"

	"github.com/robotack/robotack/internal/detect"
	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/sim"
	"github.com/robotack/robotack/internal/stats"
)

func TestKalmanConvergesToConstantVelocity(t *testing.T) {
	k := NewKalman(geom.V(10, 50))
	// Object moves +2 px/frame in u, -0.5 in v; noiseless measurements.
	for i := 1; i <= 60; i++ {
		k.Predict()
		z := geom.V(10+2*float64(i), 50-0.5*float64(i))
		if err := k.Update(z, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	v := k.Velocity()
	if math.Abs(v.X-2) > 0.1 || math.Abs(v.Y+0.5) > 0.1 {
		t.Errorf("velocity = %v, want (2, -0.5)", v)
	}
	c := k.Center()
	if math.Abs(c.X-130) > 1 || math.Abs(c.Y-20) > 1 {
		t.Errorf("center = %v, want (130, 20)", c)
	}
}

func TestKalmanSmoothsNoise(t *testing.T) {
	rng := stats.NewRNG(5)
	k := NewKalman(geom.V(100, 60))
	const sigma = 6.0
	var rawErr, filtErr []float64
	for i := 1; i <= 400; i++ {
		k.Predict()
		truth := geom.V(100+0.8*float64(i), 60)
		z := geom.V(truth.X+rng.Normal(0, sigma), truth.Y+rng.Normal(0, sigma))
		if err := k.Update(z, sigma, sigma); err != nil {
			t.Fatal(err)
		}
		if i > 50 { // after burn-in
			rawErr = append(rawErr, math.Abs(z.X-truth.X))
			filtErr = append(filtErr, math.Abs(k.Center().X-truth.X))
		}
	}
	if stats.Mean(filtErr) >= stats.Mean(rawErr)*0.6 {
		t.Errorf("filter error %.2f not much better than raw %.2f",
			stats.Mean(filtErr), stats.Mean(rawErr))
	}
}

// The vulnerability the paper exploits: drift injected within ~1 sigma
// per frame is absorbed by the filter (normalized innovation stays in
// the noise envelope) while steadily moving the estimate.
func TestKalmanAbsorbsSubSigmaDrift(t *testing.T) {
	const sigma = 4.0
	k := NewKalman(geom.V(100, 60))
	// Warm up on a static object.
	for i := 0; i < 40; i++ {
		k.Predict()
		if err := k.Update(geom.V(100, 60), sigma, sigma); err != nil {
			t.Fatal(err)
		}
	}
	start := k.Center().X
	maxInnov := 0.0
	pos := 100.0
	for i := 0; i < 30; i++ {
		k.Predict()
		pos += sigma * 0.8 // attacker-style drift, below 1 sigma/frame
		if err := k.Update(geom.V(pos, 60), sigma, sigma); err != nil {
			t.Fatal(err)
		}
		if in := math.Abs(k.InnovationNorm().X); in > maxInnov {
			maxInnov = in
		}
	}
	// Under constant sub-sigma drift the steady-state normalized
	// innovation sits inside the plausible noise band (|y|/sqrt(S) well
	// below the ~2-sigma alarms an IDS would use).
	if maxInnov > 1.6 {
		t.Errorf("normalized innovation peaked at %.2f; drift should hide in noise", maxInnov)
	}
	if shift := k.Center().X - start; shift < 3*sigma {
		t.Errorf("estimate shifted only %.1f px; the drift attack should move it", shift)
	}
}

func TestHungarianSimple(t *testing.T) {
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	got := Hungarian(cost)
	want := []int{1, 0, 2}
	total := 0.0
	for i, j := range got {
		if j != want[i] {
			t.Errorf("assignment[%d] = %d, want %d", i, j, want[i])
		}
		total += cost[i][j]
	}
	if total != 5 {
		t.Errorf("total = %v, want 5", total)
	}
}

func TestHungarianRectangular(t *testing.T) {
	// More tracks (rows) than detections (cols): one row unassigned.
	cost := [][]float64{
		{1, 9},
		{9, 1},
		{2, 2},
	}
	got := Hungarian(cost)
	assignedCols := map[int]bool{}
	n := 0
	for _, j := range got {
		if j >= 0 {
			if assignedCols[j] {
				t.Fatal("column assigned twice")
			}
			assignedCols[j] = true
			n++
		}
	}
	if n != 2 {
		t.Errorf("assigned %d rows, want 2", n)
	}
	if got[0] != 0 || got[1] != 1 {
		t.Errorf("assignment = %v, want rows 0,1 to take cols 0,1", got)
	}
}

func TestHungarianEmpty(t *testing.T) {
	if got := Hungarian(nil); got != nil {
		t.Errorf("Hungarian(nil) = %v", got)
	}
	got := Hungarian([][]float64{{}, {}})
	if len(got) != 2 || got[0] != -1 || got[1] != -1 {
		t.Errorf("no-column result = %v", got)
	}
}

// Property: Hungarian is optimal for random 4x4 matrices (checked
// against brute force over all permutations).
func TestHungarianOptimality(t *testing.T) {
	rng := stats.NewRNG(17)
	perms := permutations([]int{0, 1, 2, 3})
	for trial := 0; trial < 200; trial++ {
		cost := make([][]float64, 4)
		for i := range cost {
			cost[i] = make([]float64, 4)
			for j := range cost[i] {
				cost[i][j] = rng.Uniform(0, 10)
			}
		}
		got := Hungarian(cost)
		gotTotal := 0.0
		for i, j := range got {
			gotTotal += cost[i][j]
		}
		best := math.Inf(1)
		for _, p := range perms {
			s := 0.0
			for i, j := range p {
				s += cost[i][j]
			}
			if s < best {
				best = s
			}
		}
		if gotTotal > best+1e-9 {
			t.Fatalf("trial %d: Hungarian total %v > optimal %v", trial, gotTotal, best)
		}
	}
}

func permutations(xs []int) [][]int {
	if len(xs) <= 1 {
		return [][]int{append([]int(nil), xs...)}
	}
	var out [][]int
	for i := range xs {
		rest := make([]int, 0, len(xs)-1)
		rest = append(rest, xs[:i]...)
		rest = append(rest, xs[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]int{xs[i]}, p...))
		}
	}
	return out
}

func det(box geom.Rect, cls sim.Class) detect.Detection {
	return detect.Detection{
		Box: box, Raw: box, Bottom: box.Min.Y + box.H,
		Class: cls, Area: int(box.Area()), Score: 1,
	}
}

func TestTrackerLifecycle(t *testing.T) {
	tr := NewTracker(DefaultConfig())
	b := geom.R(50, 40, 12, 9)

	tracks := tr.Step([]detect.Detection{det(b, sim.ClassVehicle)})
	if len(tracks) != 1 || tracks[0].Confirmed {
		t.Fatalf("frame 1: tracks=%d confirmed=%v", len(tracks), tracks[0].Confirmed)
	}
	tracks = tr.Step([]detect.Detection{det(b.Translate(geom.V(1, 0)), sim.ClassVehicle)})
	if !tracks[0].Confirmed {
		t.Fatal("track should confirm after MinHits")
	}
	id := tracks[0].ID

	// Miss a few frames: track coasts, stays alive.
	for i := 0; i < 5; i++ {
		tracks = tr.Step(nil)
	}
	if len(tracks) != 1 || tracks[0].ID != id || !tracks[0].Coasting() {
		t.Fatal("track should coast through short misses")
	}

	// Reassociate after the gap.
	tracks = tr.Step([]detect.Detection{det(b.Translate(geom.V(7, 0)), sim.ClassVehicle)})
	if len(tracks) != 1 || tracks[0].ID != id {
		t.Fatalf("track should reassociate, got %d tracks", len(tracks))
	}
	if tracks[0].Coasting() {
		t.Error("reassociated track should not be coasting")
	}
}

func TestTrackerDeletesAfterMaxMisses(t *testing.T) {
	cfg := DefaultConfig()
	tr := NewTracker(cfg)
	b := geom.R(50, 40, 12, 9)
	tr.Step([]detect.Detection{det(b, sim.ClassVehicle)})
	tr.Step([]detect.Detection{det(b, sim.ClassVehicle)})
	for i := 0; i <= cfg.MaxMisses; i++ {
		tr.Step(nil)
	}
	if n := len(tr.Tracks()); n != 0 {
		t.Errorf("tracks = %d, want 0 after MaxMisses", n)
	}
}

func TestTrackerSeparatesTwoObjects(t *testing.T) {
	tr := NewTracker(DefaultConfig())
	a := geom.R(30, 40, 12, 9)
	b := geom.R(130, 40, 12, 9)
	var idA, idB int
	for i := 0; i < 10; i++ {
		d := float64(i)
		tracks := tr.Step([]detect.Detection{
			det(a.Translate(geom.V(d, 0)), sim.ClassVehicle),
			det(b.Translate(geom.V(-d, 0)), sim.ClassVehicle),
		})
		if i == 2 {
			if len(tracks) != 2 {
				t.Fatalf("tracks = %d", len(tracks))
			}
			idA, idB = tracks[0].ID, tracks[1].ID
		}
	}
	if len(tr.Tracks()) != 2 {
		t.Fatalf("tracks = %d, want 2", len(tr.Tracks()))
	}
	for _, trk := range tr.Tracks() {
		if trk.ID != idA && trk.ID != idB {
			t.Error("track identity switched")
		}
	}
}

func TestTrackerGateRejectsFarDetection(t *testing.T) {
	tr := NewTracker(DefaultConfig())
	b := geom.R(50, 40, 12, 9)
	tr.Step([]detect.Detection{det(b, sim.ClassVehicle)})
	tr.Step([]detect.Detection{det(b, sim.ClassVehicle)})
	// A detection far outside the gate must spawn a new track, not move
	// the existing one.
	tracks := tr.Step([]detect.Detection{det(b.Translate(geom.V(120, 0)), sim.ClassVehicle)})
	if len(tracks) != 2 {
		t.Fatalf("tracks = %d, want 2 (original + new tentative)", len(tracks))
	}
}

func TestGateClassDependence(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Gate(sim.ClassPedestrian, 10) <= cfg.Gate(sim.ClassVehicle, 10) {
		t.Error("pedestrian gate should be wider (noisier class)")
	}
	if cfg.Gate(sim.ClassVehicle, 0.1) != cfg.GateFloorPx {
		t.Error("gate floor not applied")
	}
}

func TestNoiseStd(t *testing.T) {
	cfg := DefaultConfig()
	su, sv := cfg.NoiseStd(sim.ClassVehicle, geom.R(0, 0, 10, 8))
	if math.Abs(su-4.64) > 1e-9 || math.Abs(sv-4.688) > 1e-9 {
		t.Errorf("vehicle noise = %v, %v", su, sv)
	}
	su, _ = cfg.NoiseStd(sim.ClassPedestrian, geom.R(0, 0, 10, 8))
	if math.Abs(su-20.1) > 1e-9 {
		t.Errorf("pedestrian sigmaU = %v", su)
	}
}

func BenchmarkTrackerStep(b *testing.B) {
	tr := NewTracker(DefaultConfig())
	dets := make([]detect.Detection, 8)
	for i := range dets {
		dets[i] = det(geom.R(float64(10+22*i), 40, 12, 9), sim.ClassVehicle)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Step(dets)
	}
}

// BenchmarkHungarian8x8 runs the assignment solver the way the Tracker
// does every frame: on warm struct-owned scratch.
func BenchmarkHungarian8x8(b *testing.B) {
	rng := stats.NewRNG(2)
	cost := make([][]float64, 8)
	for i := range cost {
		cost[i] = make([]float64, 8)
		for j := range cost[i] {
			cost[i][j] = rng.Uniform(0, 10)
		}
	}
	var s hungarianScratch
	s.solve(cost)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.solve(cost)
	}
}
