package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/results"
)

// Workload sizes. A repetition is one closed batch per campaign; runs
// repeat it until the time is spent, and report the median, so a
// repetition is kept short enough for a run to hold a dozen or more.
// table2 runs every campaign at -runs 50 (350 episodes); store holds
// 13 campaigns of 1500 records, ten times the largest store a default
// `robotack-campaign -runs 150` sweep writes (Table II plus the six
// no-safety-hijacker rows).
const (
	table2Runs     = 50
	storeCampaigns = 1500

	setups = 7 // set-ups per run; setup_s is their median
	// storeWrites is how many write phases a store repetition makes,
	// each into a new store, so a run holds dozens of them.
	storeWrites = 6
	// warmEpisodes is how many episodes one set-up of an episode
	// workload runs, spread over its batches.
	warmEpisodes = 128
	// storeSourceRuns is how many episodes of each campaign the store
	// workload's set-up sweeps to build its records from.
	storeSourceRuns = 24
	// tracedOpens is how many times a traced repetition reopens its
	// store, for the store.*.open latencies.
	tracedOpens = 3
	// episodeQueries is how many Episodes queries a traced
	// repetition's read mix makes at least; an untraced one reads
	// everything back once, to check it.
	episodeQueries = 100
)

// deriveSeed maps the run's seed and an input stream number to a base
// seed below 2^40 (a SplitMix64 step), so nearby run seeds give
// unrelated inputs and episode seeds base+index never overflow.
func deriveSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 24)
}

// batch is one engine batch of an episode workload: a campaign.
type batch struct {
	c    experiment.Campaign
	key  string // the key its records are stored under
	runs int
	base int64
}

// job is one workload as the measurement loop sees it: what produces
// a repetition's records, and a set-up.
type job struct {
	// produce returns the records a repetition persists: a fresh sweep
	// of the program's episodes, or the store workload's input.
	produce func() (*written, error)
	// swept reports whether produce runs episodes, whose records must
	// pass the record checks and repeat exactly across repetitions.
	swept bool
	// batches are the episode batches the traced run re-drives.
	batches []batch
	setup   func() error
}

// sweep runs batches on eng through the program's campaign API,
// streaming every record into w.
func sweep(eng *engine.Engine, batches []batch, w *written) error {
	for _, bt := range batches {
		r, err := experiment.RunCampaignOn(eng, bt.c, bt.runs, bt.base, nil, experiment.WithSink(w))
		if err != nil {
			return fmt.Errorf("%s: %w", bt.key, err)
		}
		if r.Runs != bt.runs || len(w.records[bt.key]) != bt.runs {
			return fmt.Errorf("%s: %d episodes delivered, %d records stored, %d attempted", bt.key, r.Runs, len(w.records[bt.key]), bt.runs)
		}
	}
	return nil
}

// episodeJob is the job of an episode workload: run the batches on an
// engine with one worker per CPU, as `robotack-campaign -out` does.
func (b *bench) episodeJob(batches []batch, warmBase int64) job {
	eng := engine.New(engine.WithWorkers(b.workers))
	produce := func(batches []batch) (*written, error) {
		w := newWritten()
		for _, bt := range batches {
			w.reserve(bt.key, bt.runs)
		}
		return w, sweep(eng, batches, w)
	}
	// Set-up builds an engine and runs a slice of every batch through
	// it, so pools and lazy state exist before the timed phase.
	warm := make([]batch, len(batches))
	for i, bt := range batches {
		warm[i] = batch{c: bt.c, key: bt.key, runs: (warmEpisodes + len(batches) - 1) / len(batches), base: warmBase}
	}
	return job{
		produce: func() (*written, error) { return produce(batches) },
		swept:   true,
		batches: batches,
		setup: func() error {
			eng = engine.New(engine.WithWorkers(b.workers))
			_, err := produce(warm)
			return err
		},
	}
}

func runTable2(b *bench, traced bool) (metrics, error) {
	base := deriveSeed(b.seed, 1)
	var batches []batch
	for _, c := range experiment.TableIICampaigns() {
		batches = append(batches, batch{c: c, key: c.Name, runs: table2Runs, base: base})
	}
	return b.measure(b.episodeJob(batches, deriveSeed(b.seed, 2)), traced)
}

func runStore(b *bench, traced bool) (metrics, error) {
	base := deriveSeed(b.seed, 5)
	var input *written
	j := job{
		produce: func() (*written, error) { return input, nil },
		// Set-up sweeps the source episodes on a new engine and builds
		// the store's records from them. The first set-up's records
		// pass the record checks; every later one must build the same.
		setup: func() error {
			src, w, err := storeInput(engine.New(engine.WithWorkers(b.workers)), base, storeSourceRuns, storeCampaigns)
			if err != nil {
				return err
			}
			if input == nil {
				b.checkWritten(src, nil)
				input = w
			} else {
				b.check(reflect.DeepEqual(input, w), "set-up built other store records from the same seed")
			}
			return nil
		},
	}
	return b.measure(j, traced)
}

// repStats is what one repetition measured. A write phase is the
// sweep (none on the store workload) plus the ingest of its records
// into a new store (persist: creating the store and closing it are left
// out); a store repetition makes storeWrites of them.
type repStats struct {
	eps, fps      []float64 // per write phase
	sweepEps      float64   // episodes per second of the sweep alone
	allocs, bytes float64   // per episode, over the first write phase
	diskBytes     float64   // per record
	segments      float64
}

// rep runs one repetition: the records, their checks, the timed write
// phases into new stores with the given suffix, and the read-back of
// the first store. It returns the records (nil if they failed).
func (b *bench) rep(j job, suffix string, t *opTimes, first **written) (repStats, *written) {
	var r repStats
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := now()
	w, err := j.produce()
	sweepNs := now() - t0
	if err != nil {
		b.fail(err)
		return r, nil
	}
	n := float64(w.appended)
	r.sweepEps = n / (float64(sweepNs) / 1e9)
	writes := 1
	if !j.swept {
		writes = storeWrites
	}
	var path string
	for i := 0; i < writes; i++ {
		p := b.tempDir("store") + suffix
		defer os.RemoveAll(p)
		ingested, ingestNs, err := persist(p, w, t)
		if err != nil {
			b.fail(err)
			return r, nil
		}
		// What the phase delivers: every episode of the sweep, or on
		// the store workload the records of the timed ingest.
		delivered := n
		if !j.swept {
			delivered = float64(ingested)
		}
		secs := float64(sweepNs+ingestNs) / 1e9
		if i == 0 {
			runtime.ReadMemStats(&m1)
			path = p
			r.allocs = float64(m1.Mallocs-m0.Mallocs) / n
			r.bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / n
		}
		r.eps = append(r.eps, delivered/secs)
		r.fps = append(r.fps, delivered*float64(w.frames)/n/secs)
	}
	fmt.Fprintf(b.stderr, "campaignbench: repetition: %d episodes, %.1f/s\n", w.appended, median(r.eps))
	if j.swept {
		if *first == nil {
			*first = w
		}
		b.checkWritten(w, *first)
	}
	segs, disk, err := diskUsage(path)
	if err != nil {
		b.fail(err)
	}
	r.diskBytes = float64(disk) / n
	r.segments = float64(segs)
	opens, mixes := 1, 1
	if t.traced {
		opens, mixes = tracedOpens, (episodeQueries+len(w.order)-1)/len(w.order)
	}
	b.readBack(path, w, t, opens, mixes)
	return r, w
}

// measure runs a set-up, then repetitions until the run's time is
// spent, and reports end-to-end metrics (traced false) or per-layer
// metrics from a traced run (traced true). An untraced run sets up
// `setups` times and reports the median: once before the first
// repetition, and the rest spread over the run between repetitions, so
// that set-up samples the host over the same window as the timed phase
// instead of its first seconds.
func (b *bench) measure(j job, traced bool) (metrics, error) {
	var setupS []float64
	setup := func() error {
		t0 := now()
		if err := j.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, float64(now()-t0)/1e9)
		return nil
	}
	if err := setup(); err != nil {
		return nil, err
	}
	if traced {
		return b.measureTraced(j)
	}

	t := &opTimes{}
	var first, held *written
	var eps, fps, allocs, bytes, disk []float64
	start := time.Now()
	var last time.Duration
	for reps := 0; b.until(start, reps, last); reps++ {
		r0 := time.Now()
		if len(setupS) < setups && time.Since(start) >= time.Duration(len(setupS))*b.duration/setups {
			if err := setup(); err != nil {
				return nil, err
			}
		}
		r, w := b.rep(j, "", t, &first)
		last = time.Since(r0)
		if w == nil {
			break
		}
		held = w
		eps = append(eps, r.eps...)
		fps = append(fps, r.fps...)
		allocs = append(allocs, r.allocs)
		bytes = append(bytes, r.bytes)
		disk = append(disk, r.diskBytes)
	}
	for len(setupS) < setups {
		if err := setup(); err != nil {
			return nil, err
		}
	}
	if held != nil {
		eb, crash, random := outcomes(held.aggs)
		fmt.Fprintf(b.stdout, "outcomes: eb_pct %.4f crash_pct %.4f random_eb_pct %.4f\n", eb, crash, random)
	}
	fmt.Fprintf(b.stdout, "samples: %d write phases in %d repetitions; set-ups %.4f s\n", len(eps), len(disk), setupS)
	m := metrics{}
	m.set("setup_s", median(setupS), "s")
	m.set("episodes_per_s", median(eps), "1/s")
	m.set("frames_per_s", median(fps), "1/s")
	m.set("allocs_per_episode", median(allocs), "count")
	m.set("bytes_per_episode", median(bytes), "B")
	m.set("max_rss_mb", maxRSSMB(), "MB")
	m.set("disk_bytes_per_record", median(disk), "B")
	return m, nil
}

// measureTraced alternates an untraced repetition with a traced one
// until the run's time is spent. For an episode workload the untraced
// repetition is the program's own sweep (its store operations traced)
// and the traced one re-drives the same episodes through the replica
// frame loop, checking each against the program's record. For the
// store workload the traced repetitions time every operation on both
// store formats.
func (b *bench) measureTraced(j job) (metrics, error) {
	sp := &spans{}
	seg, jsonl := &opTimes{traced: true}, &opTimes{traced: true}
	var first, held *written
	var untracedEps, tracedEps, busy, tail, segments []float64
	start := time.Now()
	var last time.Duration
	for reps := 0; b.until(start, reps, last); reps++ {
		r0 := time.Now()
		if !j.swept {
			r, w := b.rep(j, "", &opTimes{}, &first)
			if w == nil {
				break
			}
			held = w
			untracedEps = append(untracedEps, r.eps...)
			r, _ = b.rep(j, "", seg, &first)
			tracedEps = append(tracedEps, r.eps...)
			segments = append(segments, r.segments)
			// A new path ending in ".jsonl" makes segstore.OpenAny
			// create a JSONL FileStore instead of a segstore.
			b.rep(j, ".jsonl", jsonl, &first)
		} else {
			r, ref := b.rep(j, "", seg, &first)
			if ref == nil {
				break
			}
			held = ref
			// The traced pass runs the frame loop only, so its
			// untraced counterpart is the sweep without the store.
			untracedEps = append(untracedEps, r.sweepEps)
			segments = append(segments, r.segments)
			p := b.tracedPass(j.batches, ref, sp, reps == 0)
			tracedEps = append(tracedEps, float64(p.episodes)/(float64(p.wallNs)/1e9))
			busy = append(busy, float64(p.busyNs)/(float64(b.workers)*float64(p.wallNs)))
			tail = append(tail, float64(p.tailNs)/1e6)
		}
		last = time.Since(r0)
	}

	m := metrics{}
	sp.layerMetrics(m)
	if sp.totalNs > 0 {
		sum := 0.0
		for _, name := range layerNames {
			sum += m[name+".share"].Value
		}
		b.check(math.Abs(sum-1) < 1e-9 && m["experiment.glue.self_ms"].Value >= 0,
			"layer self times and glue (%.6f of episode time) do not account for the episodes", sum)
	}
	m.set("engine.busy_frac", median(busy), "fraction")
	m.set("engine.tail_ms", median(tail), "ms")
	te, ue := median(tracedEps), median(untracedEps)
	m.set("trace.episodes_per_s", te, "1/s")
	m.set("trace.untraced_episodes_per_s", ue, "1/s")
	overhead := 0.0
	if ue > 0 {
		overhead = 100 * (1 - te/ue)
	}
	m.set("trace.overhead_pct", overhead, "%")
	for _, f := range []struct {
		name string
		t    *opTimes
	}{{"seg", seg}, {"jsonl", jsonl}} {
		for op, name := range opNames {
			h := &f.t.ops[op]
			m.set("store."+f.name+"."+name+".us_p50", h.quantile(0.50)/1e3, "us")
			m.set("store."+f.name+"."+name+".us_p99", h.quantile(0.99)/1e3, "us")
		}
	}
	m.set("store.seg.segments", median(segments), "count")
	eb, crash, random := 0.0, 0.0, 0.0
	if held != nil {
		eb, crash, random = outcomes(held.aggs)
	}
	m.set("outcome.eb_pct", eb, "%")
	m.set("outcome.crash_pct", crash, "%")
	m.set("outcome.random_eb_pct", random, "%")
	return m, nil
}

// pass is what one traced pass over a workload's batches measured.
type pass struct {
	episodes               int
	wallNs, busyNs, tailNs int64
}

// tracedPass re-drives every episode of batches through replica frame
// loops on an engine shaped like the program's (one worker per CPU, one
// batch per campaign, index-ordered delivery), merging the spans into
// sp. Each episode's outcome must equal the program's record ref holds
// for the same campaign and index; with verifyRun, the first episode of
// every batch must also equal experiment.Run for the same seed and
// configuration.
func (b *bench) tracedPass(batches []batch, ref *written, sp *spans, verifyRun bool) pass {
	var (
		mu          sync.Mutex
		workerSpans []*spans
		stamps      []int64
	)
	eng := engine.New(
		engine.WithWorkers(b.workers),
		engine.WithWorkerState(func() any {
			s := &spans{}
			mu.Lock()
			workerSpans = append(workerSpans, s)
			mu.Unlock()
			return newReplica(s)
		}),
		engine.WithProgress(func(done, total int) { stamps = append(stamps, now()) }),
	)
	var p pass
	firsts := make([]outcome, len(batches))
	start := now()
	for bi, bt := range batches {
		stamps = stamps[:0]
		c := bt.c
		jobs := make([]engine.Job, bt.runs)
		for i := range jobs {
			jobs[i] = func(ctx context.Context, seed int64) (any, error) {
				return engine.WorkerState(ctx).(*replica).episode(ctx, c, seed)
			}
		}
		want := ref.records[bt.key]
		for r := range eng.StreamOrdered(bt.base, jobs) {
			p.episodes++
			if r.Err != nil {
				b.fail(fmt.Errorf("%s #%d: traced episode: %w", bt.key, r.Index, r.Err))
				continue
			}
			got := r.Value.(outcome)
			if r.Index == 0 {
				firsts[bi] = got
			}
			b.check(r.Index < len(want) && want[r.Index].Seed == r.Seed && got == outcomeOf(want[r.Index]),
				"%s #%d: traced replica %+v differs from the program's record", bt.key, r.Index, got)
		}
		p.tailNs += tailNs(stamps, b.workers)
	}
	p.wallNs = now() - start
	for _, s := range workerSpans {
		p.busyNs += s.totalNs
		sp.merge(s)
	}
	if verifyRun {
		for bi, bt := range batches {
			rr, err := experiment.Run(experiment.RunConfig{
				Source: bt.c.Scenario,
				Seed:   bt.base,
				Attack: experiment.AttackSetup{Mode: bt.c.Mode, PreferDisappearFor: bt.c.PreferDisappearFor, Policy: bt.c.Policy},
			})
			b.check(err == nil && isFinite(rr.MinDelta) && outcomeOfRun(rr) == firsts[bi],
				"%s #0: traced replica %+v differs from experiment.Run %+v (raw MinDelta %v, err %v)", bt.key, firsts[bi], outcomeOfRun(rr), rr.MinDelta, err)
		}
	}
	return p
}

// outcomes are the simulated results: EB and crash rates of the smart
// (or, without attacks, golden) episodes and the EB rate of the random
// baseline, in percent.
func outcomes(aggs map[string]results.CampaignRecord) (eb, crash, randomEB float64) {
	var runs, ebs, crashes, rRuns, rEBs int
	for _, a := range aggs {
		switch a.Mode {
		case core.ModeSmart, 0:
			runs += a.Runs
			ebs += a.EBs
			crashes += a.Crashes
		case core.ModeRandom:
			rRuns += a.Runs
			rEBs += a.EBs
		}
	}
	return 100 * ratio(int64(ebs), int64(runs)), 100 * ratio(int64(crashes), int64(runs)), 100 * ratio(int64(rEBs), int64(rRuns))
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
