package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// decodeSpec decodes a job body exactly as handleSubmit does.
func decodeSpec(body []byte) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// FuzzJobSpec drives the job-spec input surface: decode → Validate →
// Cells must never panic, and an accepted spec must stay within the size
// bounds and re-marshal to a spec that expands to the same cell list.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"benchmarks":["quick"],"locality_targets":["ppc"],"locality_depths":[1125899906842624]}`,
		`{"benchmarks":["quick"],"machines":["620","21164"],"configs":["none","Simple"]}`,
		`{"benchmarks":["quick","grep"],"locality_targets":["ppc","axp"],"locality_depths":[1,16]}`,
		`{"benchmarks":["quick"],"predictors":["stride"],"scale":2,"timeout_ms":1000}`,
		`{"benchmarks":["quick"],"machines":["620+"],"configs":["none"],"bogus":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(body)
		if err != nil || spec.Validate() != nil {
			return
		}
		cells := spec.Cells()
		if len(cells) == 0 || len(cells) > maxJobCells {
			t.Fatalf("accepted spec expands to %d cells (want 1..%d)", len(cells), maxJobCells)
		}
		for _, c := range cells {
			if c.Kind != "locality" {
				continue
			}
			if n := len(c.Depths); n < 1 || n > maxLocalityDepths {
				t.Fatalf("accepted locality cell has %d depths (want 1..%d)", n, maxLocalityDepths)
			}
			for _, d := range c.Depths {
				if d < 1 || d > maxLocalityDepth {
					t.Fatalf("accepted locality depth %d (want 1..%d)", d, maxLocalityDepth)
				}
			}
		}
		again, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		back, err := decodeSpec(again)
		if err != nil {
			t.Fatalf("re-marshalled spec %s does not decode: %v", again, err)
		}
		if got := back.Cells(); !reflect.DeepEqual(got, cells) {
			t.Fatalf("round trip changed the cells\n before: %v\n  after: %v", cells, got)
		}
	})
}
