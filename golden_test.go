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
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/scenario"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/golden/episodes.json")

const goldenPath = "testdata/golden/episodes.json"

// The anchor battery: every Table II campaign (paper trigger, analytic
// oracles) and an attack-free golden run of each driving scenario.
const (
	goldenSeed         = 7_000
	goldenCampaignRuns = 4
	goldenBaselineRuns = 2
)

type goldenCampaign struct {
	Name     string   `json:"name"`
	Episodes []string `json:"episodes"`
}

type goldenFile struct {
	Seed      int64            `json:"seed"`
	Campaigns []goldenCampaign `json:"campaigns"`
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
	return out
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
}
