package main

import (
	"context"
	"fmt"
	"math"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/perception"
	"github.com/robotack/robotack/internal/planner"
	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/scenario"
	"github.com/robotack/robotack/internal/sensor"
	"github.com/robotack/robotack/internal/sim"
	"github.com/robotack/robotack/internal/stats"
)

// replica re-drives experiment.RunCtx's frame loop from the same
// public stage calls, with a span around each call. It keeps one
// worker's pooled episode state the way experiment.Scratch does — a
// camera buffer, both perception stacks, LiDAR, planner, scenario
// arena and reseeded RNG streams — so the spans time the pooled
// steady state the campaign path runs. A replica is single-goroutine.
type replica struct {
	sp *spans

	cam     *sensor.Camera
	capture sensor.CaptureBuffer
	ads     *perception.Pipeline
	lidar   *sensor.Lidar
	pl      *planner.Planner
	arena   *scenario.Arena
	malware *core.Malware
	// oracles wrap the analytic oracles the malware would fall back
	// to, so the oracle span nests inside the malware span.
	oracles map[core.Vector]core.Oracle

	scnRNG, adsRNG, malRNG, lidarRNG *stats.RNG
	// trace is the recycled per-frame target delta after a launch, as
	// RunCtx keeps it in the worker's Scratch for Fig. 8.
	trace []float64
}

func newReplica(sp *spans) *replica {
	r := &replica{sp: sp, cam: sensor.DefaultCamera(), arena: scenario.NewArena()}
	r.oracles = make(map[core.Vector]core.Oracle, 3)
	for _, v := range []core.Vector{core.VectorMoveOut, core.VectorMoveIn, core.VectorDisappear} {
		r.oracles[v] = &timedOracle{inner: core.NewAnalyticOracle(v), h: &sp.layers[layerOracle]}
	}
	return r
}

// timedOracle records a span around every oracle query.
type timedOracle struct {
	inner core.Oracle
	h     *hist
}

func (o *timedOracle) PredictDelta(s core.State, k int) float64 {
	t := now()
	d := o.inner.PredictDelta(s, k)
	o.h.add(now() - t)
	return d
}

func reseed(p **stats.RNG, seed int64) *stats.RNG {
	if *p == nil {
		*p = stats.NewRNG(seed)
	} else {
		(*p).Reseed(seed)
	}
	return *p
}

// outcome is the part of an episode's result the equivalence check
// compares against the program's own record of the same episode.
type outcome struct {
	Frames      int
	Launched    bool
	LaunchFrame int
	Vector      core.Vector
	TargetClass sim.Class
	K, KPrime   int
	EB, Crashed bool
	MinDelta    float64
	// The Fig. 8 fields, NaN and ±Inf mapped to 0 as in the record.
	DeltaAtLaunch, PredictedDelta, RealizedDelta float64
}

func outcomeOf(ep results.EpisodeRecord) outcome {
	return outcome{
		Frames: ep.Frames, Launched: ep.Launched, LaunchFrame: ep.LaunchFrame,
		Vector: ep.Vector, TargetClass: ep.TargetClass, K: ep.K, KPrime: ep.KPrime,
		EB: ep.EB, Crashed: ep.Crashed, MinDelta: ep.MinDelta,
		DeltaAtLaunch: ep.DeltaAtLaunch, PredictedDelta: ep.PredictedDelta, RealizedDelta: ep.RealizedDelta,
	}
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// finite maps NaN and ±Inf to 0, as experiment.RecordEpisode does.
func finite(x float64) float64 {
	if !isFinite(x) {
		return 0
	}
	return x
}

// targetDelta is the target's ground-truth safety potential that
// RunCtx appends to its DeltaTrace every frame after a launch: the gap
// to the target object, clamped to [0, MaxDSafe], minus d_stop.
func targetDelta(w *sim.World, target sim.ActorID, safety planner.SafetyConfig) float64 {
	a := w.Actor(target)
	if a == nil {
		return safety.MaxDSafe
	}
	gap := (a.Pos.X - a.Size.Length/2) - (w.EV.Pos.X + w.EV.Size.Length/2)
	return safety.Delta(math.Max(math.Min(gap, safety.MaxDSafe), 0), w.EV.Speed)
}

func outcomeOfRun(rr experiment.RunResult) outcome {
	return outcomeOf(experiment.RecordEpisode("", 0, 0, "", 0, false, rr))
}

// episode runs one traced episode of campaign c (Mode 0: golden).
func (r *replica) episode(ctx context.Context, c experiment.Campaign, seed int64) (outcome, error) {
	sp := r.sp
	t0 := now()
	var self [numLayers]int64
	mark := func(layer int, from int64) int64 {
		t := now()
		d := t - from
		self[layer] += d
		sp.layers[layer].add(d)
		return t
	}

	scn, err := scenario.InstantiateSource(c.Scenario, r.arena, reseed(&r.scnRNG, seed))
	if err != nil {
		return outcome{}, fmt.Errorf("instantiate: %w", err)
	}
	mark(layerInstantiate, t0)
	w := scn.World
	adsRNG := reseed(&r.adsRNG, seed*7919+13)
	if r.ads == nil {
		r.ads = perception.NewDefault(r.cam, adsRNG)
	} else {
		r.ads.Detector.SetRNG(adsRNG)
		r.ads.Reset()
	}
	ads := r.ads
	lidarRNG := reseed(&r.lidarRNG, adsRNG.SplitSeed())
	if r.lidar == nil {
		r.lidar = sensor.NewLidar(lidarRNG)
	} else {
		r.lidar.Reset(lidarRNG)
	}
	plCfg := planner.DefaultConfig(scn.CruiseSpeed)
	if r.pl == nil {
		r.pl = planner.New(plCfg)
	} else {
		r.pl.Reconfigure(plCfg)
	}
	pl := r.pl
	safety := planner.DefaultSafetyConfig()

	var malware *core.Malware
	if c.Mode != 0 {
		// A worker's replica serves one campaign batch, so the attack
		// configuration never changes under an existing malware.
		malRNG := reseed(&r.malRNG, seed*31337+7)
		if r.malware == nil {
			mcfg := core.DefaultConfig(c.Mode)
			if c.PreferDisappearFor != 0 {
				mcfg.Matcher.PreferDisappearFor = c.PreferDisappearFor
			}
			mcfg.Policy = c.Policy
			r.malware = core.New(mcfg, r.cam, r.oracles, malRNG)
		} else {
			r.malware.Reset(malRNG)
		}
		malware = r.malware
		sp.attacked++
	}

	var out outcome
	out.MinDelta = safety.MaxDSafe
	launched := false
	r.trace = r.trace[:0]
	oracleHist := &sp.layers[layerOracle]
	for i := 0; i < scn.Frames() && !w.Halted; i++ {
		if i%16 == 0 && ctx.Err() != nil {
			return out, ctx.Err()
		}
		t := now()
		frame := r.cam.CaptureInto(&r.capture, w, i)
		t = mark(layerCapture, t)
		if malware != nil {
			malware.SetEVSpeed(w.EV.Speed)
			oracleBefore := oracleHist.sum
			malware.Process(frame.Image, i)
			end := now()
			oracleNs := oracleHist.sum - oracleBefore
			self[layerOracle] += oracleNs
			d := end - t - oracleNs
			self[layerMalware] += d
			sp.layers[layerMalware].add(d)
			t = end
		}
		scan := r.lidar.Scan(w)
		t = mark(layerLidar, t)
		dets := ads.StageDetect(frame.Image)
		t = mark(layerDetect, t)
		tracks := ads.StageTrack(dets)
		t = mark(layerTrack, t)
		objs := ads.StageFuse(tracks, scan)
		t = mark(layerFusion, t)
		d := pl.Plan(objs, ads.Fusion.Config(), w.EV, w.Road)
		t = mark(layerPlanner, t)
		w.Step(d.Accel)
		mark(layerStep, t)
		out.Frames++
		sp.detections += int64(len(dets))
		sp.tracks += int64(len(tracks))
		sp.objects += int64(len(objs))

		if malware != nil && !launched && malware.Log().Launched {
			launched = true
		}
		if launched || malware == nil {
			if d.Mode == planner.ModeEmergencyBrake {
				out.EB = true
			}
			if gd := safety.GroundTruthDelta(w); gd < out.MinDelta {
				out.MinDelta = gd
			}
			if launched {
				r.trace = append(r.trace, targetDelta(w, scn.TargetID, safety))
			}
		}
	}
	if w.Halted || out.MinDelta < safety.AccidentDelta {
		out.Crashed = true
	}
	if malware != nil {
		log := malware.Log()
		out.Launched = log.Launched
		out.LaunchFrame = log.LaunchFrame
		out.Vector = log.Vector
		out.TargetClass = log.TargetClass
		out.K = log.K
		out.KPrime = log.KPrime
		out.DeltaAtLaunch = finite(log.DeltaAtLaunch)
		out.PredictedDelta = finite(log.PredictedDelta)
		if log.Launched && len(r.trace) > 0 {
			out.RealizedDelta = finite(r.trace[min(log.K, len(r.trace)-1)])
		}
		if !log.Launched {
			out.EB, out.Crashed = false, false
		} else {
			sp.launched++
			if out.EB {
				sp.launchedEB++
			}
		}
	}
	// The record maps a non-finite MinDelta to 0, so only the raw
	// value shows one.
	if !isFinite(out.MinDelta) {
		return out, fmt.Errorf("MinDelta %v", out.MinDelta)
	}

	total := now() - t0
	glue := total
	for _, s := range self {
		glue -= s
	}
	sp.layers[layerGlue].add(glue)
	sp.frames += int64(out.Frames)
	sp.episodes = append(sp.episodes, float64(total))
	sp.totalNs += total
	return out, nil
}
