package main

import (
	"context"
	"io"
	"testing"

	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/scenario"
	"github.com/robotack/robotack/internal/scenegen"
)

// TestReplicaMatchesRun checks the traced frame loop against the
// program: for every Table II campaign and for generated golden
// episodes, a replica reused across seeds (as a worker reuses it) must
// produce exactly what experiment.Run does for the same seed.
func TestReplicaMatchesRun(t *testing.T) {
	src := scenario.FromGenerator(scenegen.NewGenerator(scenegen.DefaultSpace()))
	camps := append(experiment.TableIICampaigns(), experiment.Campaign{Name: "golden-generated", Scenario: src})
	seeds := []int64{deriveSeed(1, 1), deriveSeed(2, 1) + 7, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, c := range camps {
		sp := &spans{}
		r := newReplica(sp)
		for _, seed := range seeds {
			got, err := r.episode(context.Background(), c, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.Name, seed, err)
			}
			rr, err := experiment.Run(experiment.RunConfig{
				Source: c.Scenario,
				Seed:   seed,
				Attack: experiment.AttackSetup{Mode: c.Mode, PreferDisappearFor: c.PreferDisappearFor},
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := outcomeOfRun(rr); got != want {
				t.Errorf("%s seed %d:\nreplica %+v\nRun     %+v", c.Name, seed, got, want)
			}
		}
		if c.Mode != 0 && sp.layers[layerMalware].n == 0 {
			t.Errorf("%s: no malware spans", c.Name)
		}
		if int(sp.layers[layerCapture].n) != int(sp.frames) || len(sp.episodes) != len(seeds) {
			t.Errorf("%s: %d capture spans for %d frames, %d episodes", c.Name, sp.layers[layerCapture].n, sp.frames, len(sp.episodes))
		}
	}
}

func TestDeriveSeedSpreadsNearbySeeds(t *testing.T) {
	a, b := deriveSeed(1, 1), deriveSeed(2, 1)
	if a == b || a < 0 || b < 0 || a >= 1<<40 || b >= 1<<40 {
		t.Errorf("deriveSeed(1,1)=%d deriveSeed(2,1)=%d", a, b)
	}
	if d := a - b; d > -1000 && d < 1000 {
		t.Errorf("nearby run seeds give overlapping episode seeds: %d, %d", a, b)
	}
	if deriveSeed(1, 1) != a {
		t.Error("deriveSeed is not a pure function")
	}
}

// TestTracedPassMatchesSweep runs the traced pass the way a traced run
// does — replicas on an engine, one batch per campaign — against the
// records of the program's own sweep, and checks that every episode
// matches and the engine accounting holds.
func TestTracedPassMatchesSweep(t *testing.T) {
	camps := experiment.TableIICampaigns()
	batches := []batch{
		{c: camps[1], key: camps[1].Name, runs: 5, base: 11},
		{c: camps[4], key: camps[4].Name, runs: 4, base: 11},
		{c: camps[6], key: camps[6].Name, runs: 3, base: 11},
	}
	w := newWritten()
	for _, bt := range batches {
		w.reserve(bt.key, bt.runs)
	}
	if err := sweep(engine.New(engine.WithWorkers(2)), batches, w); err != nil {
		t.Fatal(err)
	}
	b := &bench{workers: 2, stderr: io.Discard}
	sp := &spans{}
	p := b.tracedPass(batches, w, sp, true)
	if b.failed != 0 {
		t.Fatalf("%d of %d checks failed", b.failed, b.attempted)
	}
	if p.episodes != 12 || len(sp.episodes) != 12 || b.attempted != 12+len(batches) {
		t.Errorf("%d episodes, %d spans, %d checks", p.episodes, len(sp.episodes), b.attempted)
	}
	if p.busyNs <= 0 || p.busyNs > 2*p.wallNs || p.tailNs < 0 || p.tailNs > p.wallNs {
		t.Errorf("busy %d tail %d wall %d", p.busyNs, p.tailNs, p.wallNs)
	}
	if sp.attacked != 12 || sp.layers[layerMalware].n == 0 {
		t.Errorf("%d attacked episodes, %d malware spans", sp.attacked, sp.layers[layerMalware].n)
	}
}
