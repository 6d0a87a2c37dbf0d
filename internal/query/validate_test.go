package query

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// TestValidateKNN is the table-driven contract of the shared validator.
func TestValidateKNN(t *testing.T) {
	tree := buildTree(t, dataset.Gaussian(300, 2, 5), 2, 3, 16)
	for _, tc := range []struct {
		name   string
		q      geom.Point
		k      int
		reject bool
	}{
		{"valid", geom.Point{0.5, 0.5}, 5, false},
		{"k one", geom.Point{0.5, 0.5}, 1, false},
		{"k zero", geom.Point{0.5, 0.5}, 0, true},
		{"k negative", geom.Point{0.5, 0.5}, -7, true},
		{"nil point", nil, 5, true},
		{"dim too high", geom.Point{1, 2, 3}, 5, true},
		{"dim too low", geom.Point{1}, 5, true},
		{"empty point", geom.Point{}, 5, true},
		{"NaN coordinate", geom.Point{0.5, math.NaN()}, 5, true},
		{"+Inf coordinate", geom.Point{math.Inf(1), 0.5}, 5, true},
		{"-Inf coordinate", geom.Point{0.5, math.Inf(-1)}, 5, true},
		{"largest finite coordinate", geom.Point{math.MaxFloat64, -math.MaxFloat64}, 5, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateKNN(tree, tc.q, tc.k)
			if !tc.reject {
				if err != nil {
					t.Fatalf("rejected valid query: %v", err)
				}
				return
			}
			var invalid *InvalidQueryError
			if !errors.As(err, &invalid) {
				t.Fatalf("err = %v, want *InvalidQueryError", err)
			}
			if invalid.Reason == "" || invalid.Error() == "" {
				t.Fatal("error carries no reason")
			}
		})
	}
}

// TestRunCheckedRejectsAndRuns: RunChecked fails malformed queries with
// the typed error and otherwise behaves exactly like Run.
func TestRunCheckedRejectsAndRuns(t *testing.T) {
	tree := buildTree(t, dataset.Gaussian(300, 2, 5), 2, 3, 16)
	d := Driver{Tree: tree}

	var invalid *InvalidQueryError
	if _, _, err := d.RunChecked(CRSS{}, geom.Point{0.5, 0.5}, 0, Options{}); !errors.As(err, &invalid) {
		t.Fatalf("k=0: err = %v, want *InvalidQueryError", err)
	}
	if _, _, err := d.RunChecked(CRSS{}, nil, 5, Options{}); !errors.As(err, &invalid) {
		t.Fatalf("nil point: err = %v, want *InvalidQueryError", err)
	}

	want, wantStats := d.Run(CRSS{}, geom.Point{0.5, 0.5}, 5, Options{})
	got, gotStats, err := d.RunChecked(CRSS{}, geom.Point{0.5, 0.5}, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("RunChecked returned %d results, Run %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Object != want[i].Object || got[i].DistSq != want[i].DistSq {
			t.Fatalf("result %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	if gotStats.NodesVisited != wantStats.NodesVisited {
		t.Fatalf("stats diverge: %d vs %d nodes", gotStats.NodesVisited, wantStats.NodesVisited)
	}

	// Plain Run must stay k-agnostic: range queries drive it with k=0
	// (RangeBFS), so validation lives only in RunChecked.
	res, stats := d.Run(RangeBFS{Eps: 0.2}, geom.Point{0.5, 0.5}, 0, Options{})
	if stats == nil {
		t.Fatal("Run with k=0 returned nil stats")
	}
	_ = res
}
