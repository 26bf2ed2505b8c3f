package main

import (
	"io"
	"path/filepath"
	"testing"

	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/results"
)

// writeStore persists the records into a new store at path, as the
// store workload does.
func writeStore(t *testing.T, path string, w *written) {
	t.Helper()
	times := &opTimes{traced: true}
	ingested, _, err := persist(path, w, times)
	if err != nil {
		t.Fatal(err)
	}
	// Each campaign's first record is appended as the store is created.
	rest := w.appended - len(w.order)
	if ingested != rest || times.ops[opCreate].n != 1 || times.ops[opAppend].n != uint64(rest) ||
		times.ops[opPutCampaign].n != uint64(len(w.order)) || times.ops[opClose].n != 1 {
		t.Errorf("ingested %d, timed %d creates, %d appends of %d, %d aggregates of %d, %d closes", ingested,
			times.ops[opCreate].n, times.ops[opAppend].n, rest, times.ops[opPutCampaign].n, len(w.order), times.ops[opClose].n)
	}
}

// sourced is the store workload's input, built from a small sweep:
// runs episodes of every campaign, repeated up to perCampaign records.
func sourced(t *testing.T, seed int64, runs, perCampaign int) *written {
	t.Helper()
	src, w, err := storeInput(engine.New(engine.WithWorkers(2)), seed, runs, perCampaign)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.order) != 13 || w.appended != 13*perCampaign || src.appended != 13*runs {
		t.Fatalf("%d campaigns, %d records from %d episodes", len(w.order), w.appended, src.appended)
	}
	for _, n := range w.order {
		recs := w.records[n]
		if recs[runs].Index != runs || recs[runs].Frames != recs[0].Frames || recs[runs].Launched != recs[0].Launched {
			t.Fatalf("%s: record %d is not record 0 renumbered: %+v", n, runs, recs[runs])
		}
	}
	return w
}

// clone copies the maps of w so a test can tamper with the copy.
func clone(w *written) *written {
	c := &written{order: w.order, records: map[string][]results.EpisodeRecord{}, aggs: map[string]results.CampaignRecord{}, appended: w.appended}
	for k, v := range w.records {
		c.records[k] = v
	}
	for k, v := range w.aggs {
		c.aggs[k] = v
	}
	return c
}

func TestReadBackChecksBothFormats(t *testing.T) {
	want := sourced(t, 7, 2, 40)
	for _, n := range want.order {
		for _, ep := range want.records[n] {
			if err := validRecord(ep); err != nil {
				t.Fatal(err)
			}
		}
	}
	// segstore.OpenAny makes a new path ending in ".jsonl" a JSONL
	// FileStore and any other new path a segstore directory.
	for _, f := range []struct{ name, suffix string }{{"seg", ""}, {"jsonl", ".jsonl"}} {
		path := filepath.Join(t.TempDir(), "store"+f.suffix)
		writeStore(t, path, want)

		b := &bench{stderr: io.Discard}
		times := &opTimes{traced: true}
		b.readBack(path, want, times, 2, 3)
		if b.failed != 0 || b.attempted == 0 {
			t.Fatalf("%s: %d of %d checks failed on an intact store", f.name, b.failed, b.attempted)
		}
		if times.ops[opOpen].n != 2 || times.ops[opEpisodes].n != uint64(3*len(want.order)) {
			t.Errorf("%s: %d opens, %d episode queries", f.name, times.ops[opOpen].n, times.ops[opEpisodes].n)
		}

		// A record that differs from what was written must fail the
		// read-back, and so must an aggregate that is not the fold.
		bad := clone(want)
		names := want.order
		tampered := append([]results.EpisodeRecord(nil), want.records[names[0]]...)
		tampered[3].Frames++
		bad.records[names[0]] = tampered
		agg := want.aggs[names[1]]
		agg.EBs++
		bad.aggs[names[1]] = agg
		b = &bench{stderr: io.Discard}
		b.readBack(path, bad, &opTimes{}, 1, 1)
		if b.failed < 2 {
			t.Errorf("%s: %d checks failed on a tampered expectation, want at least 2", f.name, b.failed)
		}
	}
}

func TestCheckWrittenCatchesDrift(t *testing.T) {
	w := sourced(t, 3, 2, 10)
	b := &bench{stderr: io.Discard}
	b.checkWritten(w, w)
	if b.failed != 0 {
		t.Fatalf("%d checks failed on consistent records", b.failed)
	}

	drift := clone(w)
	name := w.order[0]
	eps := append([]results.EpisodeRecord(nil), w.records[name]...)
	eps[0].Launched, eps[0].EB = false, true // EB without a launch
	drift.records[name] = eps
	b.checkWritten(drift, w)
	// The invalid record, the aggregate that no longer folds, and the
	// difference from the first repetition.
	if b.failed != 3 {
		t.Errorf("%d checks failed, want 3", b.failed)
	}
}
