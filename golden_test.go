// Cross-version behaviour anchor: SHA-256 digests of the canonical
// EpisodeRecord JSON for a fixed battery of episodes, committed under
// testdata/golden/. Bit-identity tests elsewhere compare two code paths
// of the same commit, so a change that moves both paths the same way
// passes them unseen; this fixture pins the episodes themselves.
//
// Regenerate with `go test -run TestGoldenAnchor -update .` only for a
// deliberate behaviour change, and say why in CHANGES.md.
package robotack_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/nn"
	"github.com/robotack/robotack/internal/policy"
	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/scenario"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/golden/episodes.json")

const goldenPath = "testdata/golden/episodes.json"

// The anchor battery: every Table II campaign (paper trigger, analytic
// oracles), an attack-free golden run of each driving scenario, the
// "R w/o SH" variant of each smart Table II row, one smart campaign
// under the default `param` attack policy, and a small forced-launch
// oracle training set per attack vector. Together they pin every
// malware mode: smart, noSH, random, policy-driven and forced.
const (
	goldenSeed         = 7_000
	goldenCampaignRuns = 4
	goldenBaselineRuns = 2
	goldenOracleDeltas = 3
)

type goldenCampaign struct {
	Name     string   `json:"name"`
	Episodes []string `json:"episodes"`
}

// goldenDataset is the digest of one forced-launch training set.
type goldenDataset struct {
	Vector  string `json:"vector"`
	Samples int    `json:"samples"`
	Digest  string `json:"digest"`
}

type goldenFile struct {
	Seed       int64            `json:"seed"`
	Campaigns  []goldenCampaign `json:"campaigns"`
	OracleData []goldenDataset  `json:"oracle_data"`
}

// computeGolden runs the battery and digests each stored episode
// record in index order.
func computeGolden(t *testing.T) goldenFile {
	t.Helper()
	eng := engine.New(engine.WithWorkers(2))
	store := results.NewMemStore()
	var names []string
	for _, c := range experiment.TableIICampaigns() {
		if _, err := experiment.RunCampaignOn(eng, c, goldenCampaignRuns, goldenSeed, nil, experiment.WithSink(store)); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		names = append(names, c.Name)
	}
	for _, src := range []scenario.ID{scenario.DS1, scenario.DS2, scenario.DS3, scenario.DS4, scenario.DS5} {
		g, err := experiment.RunGoldenOn(eng, src, goldenBaselineRuns, goldenSeed, experiment.WithSink(store))
		if err != nil {
			t.Fatalf("golden %s: %v", src.Label(), err)
		}
		names = append(names, g.Name)
	}
	var variants []experiment.Campaign
	for _, c := range experiment.TableIICampaigns() {
		if c.Mode == core.ModeSmart {
			variants = append(variants, c.WithoutSH())
		}
	}
	param, err := policy.New(policy.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	variants = append(variants, experiment.TableIICampaigns()[1].WithPolicy("param", param))
	for _, c := range variants {
		if _, err := experiment.RunCampaignOn(eng, c, goldenCampaignRuns, goldenSeed, nil, experiment.WithSink(store)); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		names = append(names, c.Name)
	}

	out := goldenFile{Seed: goldenSeed}
	for _, name := range names {
		eps, err := store.Episodes(name)
		if err != nil {
			t.Fatal(err)
		}
		gc := goldenCampaign{Name: name}
		for _, ep := range eps {
			raw, err := json.Marshal(ep)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			gc.Episodes = append(gc.Episodes, hex.EncodeToString(sum[:]))
		}
		out.Campaigns = append(out.Campaigns, gc)
	}

	for i, spec := range experiment.DefaultOracleSpecs() {
		spec.DeltaGrid = spec.DeltaGrid[:goldenOracleDeltas]
		spec.SeedsPerPoint = 1
		ds, err := experiment.GenerateOracleDataOn(eng, spec, goldenSeed+int64(i)*1_000)
		if err != nil {
			t.Fatalf("oracle data %v: %v", spec.Vector, err)
		}
		out.OracleData = append(out.OracleData, goldenDataset{
			Vector:  spec.Vector.String(),
			Samples: ds.Len(),
			Digest:  datasetDigest(ds),
		})
	}
	return out
}

// datasetDigest hashes a training set's exact float64 bits, row by
// row, input features before the label.
func datasetDigest(ds nn.Dataset) string {
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for i, x := range ds.X {
		for _, v := range x {
			put(v)
		}
		put(ds.Y[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenAnchor recomputes the battery's episode digests and names
// the first campaign and episode index that drifted from the fixture.
func TestGoldenAnchor(t *testing.T) {
	got := computeGolden(t)
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want goldenFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	if want.Seed != got.Seed || len(want.Campaigns) != len(got.Campaigns) {
		t.Fatalf("fixture battery (seed %d, %d campaigns) differs from the test's (seed %d, %d campaigns)",
			want.Seed, len(want.Campaigns), got.Seed, len(got.Campaigns))
	}
	for ci, wc := range want.Campaigns {
		gc := got.Campaigns[ci]
		if wc.Name != gc.Name {
			t.Fatalf("campaign %d: fixture has %q, run has %q", ci, wc.Name, gc.Name)
		}
		if len(wc.Episodes) != len(gc.Episodes) {
			t.Fatalf("%s: fixture has %d episodes, run has %d", wc.Name, len(wc.Episodes), len(gc.Episodes))
		}
		for i := range wc.Episodes {
			if wc.Episodes[i] != gc.Episodes[i] {
				t.Fatalf("first drift: campaign %s episode %d: digest %s, fixture %s",
					wc.Name, i, gc.Episodes[i][:12], wc.Episodes[i][:12])
			}
		}
	}
	if len(want.OracleData) != len(got.OracleData) {
		t.Fatalf("fixture has %d oracle datasets, run has %d", len(want.OracleData), len(got.OracleData))
	}
	for i, wd := range want.OracleData {
		if gd := got.OracleData[i]; wd != gd {
			t.Fatalf("oracle dataset %d drifted: run %s/%d samples/%s, fixture %s/%d samples/%s",
				i, gd.Vector, gd.Samples, gd.Digest[:12], wd.Vector, wd.Samples, wd.Digest[:12])
		}
	}
}
