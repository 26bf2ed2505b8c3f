package main

import "time"

// Layers of the traced frame loop, in the order the loop calls them.
// Each span wraps one public call that experiment.RunCtx makes; the
// oracle span nests inside the malware's, and glue is the part of an
// episode no span covers.
const (
	layerInstantiate = iota
	layerCapture
	layerMalware
	layerOracle
	layerLidar
	layerDetect
	layerTrack
	layerFusion
	layerPlanner
	layerStep
	layerGlue
	numLayers
)

var layerNames = [numLayers]string{
	"scenario.instantiate",
	"sensor.capture",
	"core.malware",
	"core.oracle",
	"sensor.lidar",
	"detect",
	"track",
	"fusion",
	"planner",
	"sim.step",
	"experiment.glue",
}

// epoch anchors the monotonic clock the spans read.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// spans accumulates one worker's spans: per-layer self-time histograms,
// whole-episode durations and the per-frame work counts. A worker owns
// its spans until its batch ends; merge combines them afterwards.
type spans struct {
	layers   [numLayers]hist
	episodes []float64 // episode durations, ns
	totalNs  int64     // summed episode durations

	frames, detections, tracks, objects int64
	attacked, launched, launchedEB      int64
}

func (s *spans) merge(o *spans) {
	for i := range s.layers {
		s.layers[i].merge(&o.layers[i])
	}
	s.episodes = append(s.episodes, o.episodes...)
	s.totalNs += o.totalNs
	s.frames += o.frames
	s.detections += o.detections
	s.tracks += o.tracks
	s.objects += o.objects
	s.attacked += o.attacked
	s.launched += o.launched
	s.launchedEB += o.launchedEB
}

// layerMetrics reports calls, self time, share of episode time and the
// per-call p50/p99 of every layer, plus the episode and count metrics.
func (s *spans) layerMetrics(m metrics) {
	self := make([]int64, layerGlue)
	for i := range self {
		self[i] = s.layers[i].sum
	}
	share, glue := shares(self, s.totalNs)
	for i := 0; i < numLayers; i++ {
		h := &s.layers[i]
		name := layerNames[i]
		selfNs, sh := h.sum, 0.0
		if i == layerGlue {
			selfNs = glue
			if s.totalNs > 0 {
				sh = float64(glue) / float64(s.totalNs)
			}
		} else {
			sh = share[i]
		}
		m.set(name+".calls", float64(h.n), "count")
		m.set(name+".self_ms", float64(selfNs)/1e6, "ms")
		m.set(name+".share", sh, "fraction")
		m.set(name+".us_p50", h.quantile(0.50)/1e3, "us")
		m.set(name+".us_p99", h.quantile(0.99)/1e3, "us")
	}
	m.set("experiment.episode.calls", float64(len(s.episodes)), "count")
	m.set("experiment.episode.total_ms", float64(s.totalNs)/1e6, "ms")
	m.set("experiment.episode.ms_p50", percentile(s.episodes, 0.50)/1e6, "ms")
	m.set("experiment.episode.ms_p99", percentile(s.episodes, 0.99)/1e6, "ms")

	m.set("detect.detections_per_frame", ratio(s.detections, s.frames), "count")
	m.set("track.tracks_per_frame", ratio(s.tracks, s.frames), "count")
	m.set("fusion.objects_per_frame", ratio(s.objects, s.frames), "count")
	m.set("core.oracle.queries_per_episode", ratio(int64(s.layers[layerOracle].n), s.attacked), "count")
	m.set("core.launch_frac", ratio(s.launched, s.attacked), "fraction")
	m.set("core.eb_per_launch", ratio(s.launchedEB, s.launched), "fraction")
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
