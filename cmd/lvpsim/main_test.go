package main

import (
	"reflect"
	"strings"
	"testing"

	"lvp/internal/exp"
)

// TestSelectExperiments pins -exp resolution: the named sets expand in
// registry order, list entries are trimmed and reordered to registry order,
// and an unknown name anywhere in the list rejects the whole selection
// before any experiment runs.
func TestSelectExperiments(t *testing.T) {
	all := exp.Experiments()
	var allNames, paperNames []string
	for _, e := range all {
		allNames = append(allNames, e.Name)
		if e.Paper {
			paperNames = append(paperNames, e.Name)
		}
	}
	for _, tc := range []struct {
		spec    string
		want    []string
		wantErr string
	}{
		{spec: "all", want: allNames},
		{spec: "paper", want: paperNames},
		{spec: "table6, fig6 ,table1", want: []string{"table1", "fig6", "table6"}},
		{spec: "fig6,fig6", want: []string{"fig6"}},
		{spec: "fig6,bogus", wantErr: `unknown experiment "bogus"`},
		{spec: "bogus", wantErr: `unknown experiment "bogus"`},
		{spec: "", wantErr: `unknown experiment ""`},
	} {
		got, err := selectExperiments(tc.spec, all)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%q: err = %v, want %q", tc.spec, err, tc.wantErr)
			}
			if got != nil {
				t.Errorf("%q: selected %d experiments despite the error", tc.spec, len(got))
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.spec, err)
			continue
		}
		var names []string
		for _, e := range got {
			names = append(names, e.Name)
		}
		if !reflect.DeepEqual(names, tc.want) {
			t.Errorf("%q: selected %v, want %v", tc.spec, names, tc.want)
		}
	}
	if len(paperNames) == 0 || len(paperNames) == len(allNames) {
		t.Fatalf("paper set has %d of %d experiments; the table above needs a proper subset", len(paperNames), len(allNames))
	}
}
