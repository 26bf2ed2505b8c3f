package scenegen

import (
	"reflect"
	"testing"
)

// FuzzSpecParse feeds arbitrary bytes to the scenario-spec decoder. It
// must never panic, and every spec it accepts must re-marshal into JSON
// that parses back to an equal spec.
func FuzzSpecParse(f *testing.F) {
	for _, spec := range builtinSpecs() {
		data, err := spec.JSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"x","typo_field":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(data)
		if err != nil {
			return
		}
		out, err := spec.JSON()
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("re-marshaled spec does not parse: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Fatalf("round-trip drift\n got %+v\nwant %+v", back, spec)
		}
	})
}
