package policy

import (
	"reflect"
	"testing"
)

// FuzzPolicyParse feeds arbitrary bytes to the policy-artifact decoder.
// It must never panic, and every artifact it accepts must re-marshal
// into its canonical form and parse back to an equal artifact.
func FuzzPolicyParse(f *testing.F) {
	p := DefaultParams()
	p.Gamma = 13.25
	p.SwapMasking = true
	p.Delay = 7
	paper := PaperArtifact()
	for _, a := range []*Artifact{
		&paper,
		{V: Version, Kind: KindParam, Name: "trained", Params: &p, Seed: 42, Generations: 8,
			Fitness: 0.8125, TrainedOn: []string{"DS-1-search"}},
	} {
		raw, err := a.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"v":1,"kind":"paper","bogus":true}`))
	f.Add([]byte(`{"v":1,"kind":"bandit"}`))
	f.Add([]byte(`{"v":99,"kind":"paper"}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		a, err := Parse(raw)
		if err != nil {
			return
		}
		out, err := a.Marshal()
		if err != nil {
			t.Fatalf("accepted artifact does not marshal: %v", err)
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("re-marshaled artifact does not parse: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(back, a) {
			t.Fatalf("round-trip drift\n got %+v\nwant %+v", back, a)
		}
	})
}
