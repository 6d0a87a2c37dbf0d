package query

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/parallel"
)

// InvalidQueryError reports a malformed k-NN query rejected before any
// page is touched. Every driver — the immediate Driver, the simulator
// and the concurrent engine — performs the same checks through
// ValidateKNN, so a bad query fails identically on all three paths.
type InvalidQueryError struct {
	Reason string
}

// Error implements error.
func (e *InvalidQueryError) Error() string { return "query: invalid query: " + e.Reason }

// ValidateKNN checks a k-NN query's inputs against the tree it will
// run on: k must be positive, the query point non-nil with finite
// coordinates, and its dimensionality must match the tree's. A NaN or
// infinite coordinate would make every distance NaN or +Inf, so the
// pruning comparisons would silently pass or fail and the "nearest"
// neighbors returned would be arbitrary. A nil error means the query
// is admissible; any failure is an *InvalidQueryError.
func ValidateKNN(t *parallel.Tree, q geom.Point, k int) error {
	if k <= 0 {
		return &InvalidQueryError{Reason: fmt.Sprintf("k must be positive, got %d", k)}
	}
	if q == nil {
		return &InvalidQueryError{Reason: "query point is nil"}
	}
	if dim := t.Config().Dim; q.Dim() != dim {
		return &InvalidQueryError{Reason: fmt.Sprintf("query dim %d, tree dim %d", q.Dim(), dim)}
	}
	for i, c := range q {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return &InvalidQueryError{Reason: fmt.Sprintf("query coordinate %d is %g, want a finite number", i, c)}
		}
	}
	return nil
}

// RunChecked is Run with input validation: it rejects malformed k-NN
// queries with the same *InvalidQueryError the concurrent engine
// returns, then runs exactly like Run. Plain Run stays unvalidated
// because range queries reuse it with k = 0.
func (d Driver) RunChecked(alg Algorithm, q geom.Point, k int, opts Options) ([]Neighbor, *Stats, error) {
	if err := ValidateKNN(d.Tree, q, k); err != nil {
		return nil, nil, err
	}
	res, stats := d.Run(alg, q, k, opts)
	return res, stats, nil
}
