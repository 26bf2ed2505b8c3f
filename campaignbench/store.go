package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/segstore"
)

// Store operations the benchmark times, named as in the per-layer
// metrics store.<format>.<op>.
const (
	opCreate = iota
	opAppend
	opPutCampaign
	opClose
	opOpen
	opCampaigns
	opEpisodes
	opAggregate
	opDiff
	opStats
	numOps
)

var opNames = [numOps]string{
	"create", "append", "put_campaign", "close", "open", "campaigns", "episodes", "aggregate", "diff", "stats",
}

// opTimes collects store-operation latencies when traced: a histogram
// per operation.
type opTimes struct {
	traced bool
	ops    [numOps]hist
}

func (t *opTimes) add(op int, ns int64) {
	if t.traced {
		t.ops[op].add(ns)
	}
}

// written is what a repetition writes into a store: each campaign's
// episode records in append order and its aggregate. It is also the
// results.Store the episode workloads' sweeps stream into, so the
// records the program produced can be persisted and checked.
type written struct {
	order    []string // campaigns in first-append order
	records  map[string][]results.EpisodeRecord
	aggs     map[string]results.CampaignRecord
	appended int
	frames   int64
}

func newWritten() *written {
	return &written{
		records: make(map[string][]results.EpisodeRecord),
		aggs:    make(map[string]results.CampaignRecord),
	}
}

// reserve makes room for a campaign's records before a timed phase, so
// keeping them allocates nothing while it runs.
func (w *written) reserve(campaign string, n int) {
	w.order = append(w.order, campaign)
	w.records[campaign] = make([]results.EpisodeRecord, 0, n)
}

func (w *written) Append(ep results.EpisodeRecord) error {
	if _, ok := w.records[ep.Campaign]; !ok {
		w.order = append(w.order, ep.Campaign)
	}
	w.records[ep.Campaign] = append(w.records[ep.Campaign], ep)
	w.appended++
	w.frames += int64(ep.Frames)
	return nil
}

func (w *written) PutCampaign(c results.CampaignRecord) error {
	w.aggs[c.Name] = c
	return nil
}

func (w *written) Campaigns() ([]results.CampaignRecord, error) {
	out := make([]results.CampaignRecord, 0, len(w.aggs))
	for _, name := range sortedKeys(w.aggs) {
		out = append(out, w.aggs[name])
	}
	return out, nil
}

func (w *written) Episodes(campaign string) ([]results.EpisodeRecord, error) {
	return w.records[campaign], nil
}

// persist streams w into a new store at path the way a campaign writes
// its results — each campaign's episodes, then its aggregate — and
// closes it, timing every operation when t is traced. It returns the
// ingest: how many records it appended after the store was created, and
// how long they and the aggregates took.
//
// Creating the store is left out of the ingest, as is the close. A
// segstore syncs a new shard's CURRENT file when a campaign's first
// record arrives, and the close syncs every shard. Those syncs wait on a
// disk that other tenants of a shared host make far noisier than the
// program's own work: on a 2-vCPU VM, the 13 first appends of a store
// took 36-189 ms against 98-175 ms for its other 19,487. So persist
// first creates the store and appends each campaign's first record, one
// store.<format>.create span, and times the rest.
func persist(path string, w *written, t *opTimes) (ingested int, ingestNs int64, err error) {
	c0 := now()
	st, err := segstore.OpenAny(path)
	if err != nil {
		return 0, 0, err
	}
	for _, name := range w.order {
		if recs := w.records[name]; len(recs) > 0 {
			if err = st.Append(recs[0]); err != nil {
				break
			}
		}
	}
	t.add(opCreate, now()-c0)
	timed := func(op int, fn func() error) error {
		if !t.traced {
			return fn()
		}
		t0 := now()
		err := fn()
		t.add(op, now()-t0)
		return err
	}
	i0 := now()
	for _, name := range w.order {
		if err != nil {
			break
		}
		recs := w.records[name]
		if len(recs) > 0 {
			recs = recs[1:] // appended when the store was created
		}
		for _, ep := range recs {
			if err = timed(opAppend, func() error { return st.Append(ep) }); err != nil {
				break
			}
			ingested++
		}
		if err == nil {
			err = timed(opPutCampaign, func() error { return st.PutCampaign(w.aggs[name]) })
		}
	}
	ingestNs = now() - i0
	c0 = now()
	cerr := st.Close()
	t.add(opClose, now()-c0)
	if err == nil {
		err = cerr
	}
	return ingested, ingestNs, err
}

// validRecord applies the per-episode output checks: a positive frame
// count, and EB or a crash in an attacked mode only after the malware
// launched. A record always holds a finite MinDelta, because
// experiment.RecordEpisode maps NaN and ±Inf to 0; the traced run
// checks the raw value instead.
func validRecord(ep results.EpisodeRecord) error {
	switch {
	case ep.Frames <= 0:
		return fmt.Errorf("%s #%d: %d frames", ep.Campaign, ep.Index, ep.Frames)
	case ep.Mode != 0 && !ep.Launched && (ep.EB || ep.Crashed):
		return fmt.Errorf("%s #%d: EB/crash without a launch", ep.Campaign, ep.Index)
	}
	return nil
}

// checkWritten checks the records a sweep produced: every record
// valid, every campaign's aggregate equal to the fold of its records,
// and everything identical to the first repetition's (same seed, same
// inputs, so the program must produce the same records).
func (b *bench) checkWritten(s, first *written) {
	for _, name := range s.order {
		recs := s.records[name]
		for _, ep := range recs {
			err := validRecord(ep)
			b.check(err == nil, "%v", err)
		}
		agg, ok := s.aggs[name]
		if b.check(ok, "%s: no aggregate stored", name) {
			folded := results.Aggregate(agg, recs)
			b.check(reflect.DeepEqual(folded, agg), "%s: stored aggregate differs from the fold of its episodes", name)
		}
	}
	if first != nil && first != s {
		b.check(reflect.DeepEqual(first.records, s.records) && reflect.DeepEqual(first.aggs, s.aggs),
			"repetition differs from the first one with the same seed")
	}
}

// readBack reopens the closed store at path read-only `opens` times,
// then runs the read mix of `robotack-store stats/diff`, resume and
// campaignd GETs against it `mixes` times: Campaigns, Stats, each
// campaign's Episodes and AggregateFor, and a Diff against a byte copy.
// Every answer is checked against what was written.
func (b *bench) readBack(path string, want *written, t *opTimes, opens, mixes int) {
	var st results.Store
	for i := 0; i < opens; i++ {
		t0 := now()
		s, err := segstore.LoadAny(path)
		d := now() - t0
		if err != nil {
			b.fail(fmt.Errorf("reopen %s: %w", path, err))
			return
		}
		t.add(opOpen, d)
		if st != nil {
			closeStore(st)
		}
		st = s
	}
	defer closeStore(st)
	cp := path + ".copy"
	if err := copyTree(path, cp); err != nil {
		b.fail(err)
		return
	}
	defer os.RemoveAll(cp)
	other, err := segstore.LoadAny(cp)
	if err != nil {
		b.fail(fmt.Errorf("open copy: %w", err))
		return
	}
	defer closeStore(other)

	wantCamps := make([]results.CampaignRecord, 0, len(want.aggs))
	for _, name := range sortedKeys(want.aggs) {
		wantCamps = append(wantCamps, want.aggs[name])
	}
	query := func(op int, fn func() error) {
		t0 := now()
		err := fn()
		t.add(op, now()-t0)
		if err != nil {
			b.fail(fmt.Errorf("%s: %w", opNames[op], err))
		}
	}
	sp, ok := st.(results.StatsProvider)
	if !b.check(ok, "%T has no Stats", st) {
		return
	}
	for mix := 0; mix < mixes; mix++ {
		var camps []results.CampaignRecord
		query(opCampaigns, func() (err error) { camps, err = st.Campaigns(); return })
		b.check(reflect.DeepEqual(camps, wantCamps), "Campaigns differs from the aggregates written")

		var stats results.StoreStats
		query(opStats, func() (err error) { stats, err = sp.Stats(); return })
		b.check(stats.Episodes == want.appended && stats.Campaigns == len(want.aggs),
			"Stats reports %d episodes in %d campaigns, wrote %d in %d", stats.Episodes, stats.Campaigns, want.appended, len(want.aggs))

		for _, name := range want.order {
			var eps []results.EpisodeRecord
			query(opEpisodes, func() (err error) { eps, err = st.Episodes(name); return })
			b.check(reflect.DeepEqual(eps, want.records[name]), "%s: episodes read back differ from those written", name)

			var agg *results.CampaignRecord
			query(opAggregate, func() (err error) { agg, err = results.AggregateFor(st, name); return })
			b.check(agg != nil && reflect.DeepEqual(*agg, want.aggs[name]), "%s: AggregateFor differs from the folded aggregate", name)
		}
		var diffs []results.CampaignDiff
		query(opDiff, func() (err error) { diffs, err = results.Diff(st, other); return })
		b.check(emptyDiff(diffs, len(want.aggs)), "Diff of a store against its copy is not empty")
	}
}

func emptyDiff(diffs []results.CampaignDiff, campaigns int) bool {
	if len(diffs) != campaigns {
		return false
	}
	for _, d := range diffs {
		if d.A == nil || d.B == nil || !reflect.DeepEqual(*d.A, *d.B) ||
			d.RunsDelta != 0 || d.EBRateDelta != 0 || d.CrashRateDelta != 0 {
			return false
		}
	}
	return true
}

func closeStore(st results.Store) {
	if c, ok := st.(io.Closer); ok {
		c.Close()
	}
}

// diskUsage sums the sizes of the regular files at path.
func diskUsage(path string) (files int, bytes int64, err error) {
	err = filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		if strings.HasSuffix(p, ".seg") {
			files++
		}
		bytes += info.Size()
		return nil
	})
	return files, bytes, err
}

// copyTree copies a file or a directory of regular files.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, raw, 0o644)
	})
}

// storeInput builds the store workload's records from the program's
// own episodes. It sweeps runs episodes of every campaign of a full
// `robotack-campaign` sweep (Table II plus the no-safety-hijacker
// variants of the smart rows) on eng, then repeats each campaign's
// records in index order up to perCampaign, renumbering index and seed,
// and folds each campaign's aggregate from the result. It returns the
// sweep's records as well, for the record checks.
func storeInput(eng *engine.Engine, base int64, runs, perCampaign int) (src, out *written, err error) {
	var batches []batch
	for _, c := range experiment.TableIICampaigns() {
		batches = append(batches, batch{c: c, key: c.Name, runs: runs, base: base})
		if c.Mode == core.ModeSmart {
			nosh := c.WithoutSH()
			batches = append(batches, batch{c: nosh, key: nosh.Name, runs: runs, base: base})
		}
	}
	src = newWritten()
	for _, bt := range batches {
		src.reserve(bt.key, bt.runs)
	}
	if err := sweep(eng, batches, src); err != nil {
		return nil, nil, err
	}
	out = newWritten()
	for _, name := range src.order {
		recs := src.records[name]
		out.reserve(name, perCampaign)
		for i := 0; i < perCampaign; i++ {
			ep := recs[i%len(recs)]
			ep.Index, ep.Seed = i, base+int64(i)
			out.Append(ep)
		}
		out.aggs[name] = results.Aggregate(src.aggs[name], out.records[name])
	}
	return src, out, nil
}
