package main

import (
	"path/filepath"
	"strings"
	"testing"

	"opportune/internal/workload"
)

// TestWorkloadsSmallScale runs every workload once, plain and traced, at
// workload.SmallScale through its answer checks: one round each, one
// set-up.
func TestWorkloadsSmallScale(t *testing.T) {
	for name, fn := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 7, trace: trace, scale: workload.SmallScale(), setups: 1}
			if trace {
				o.traceOut = filepath.Join(t.TempDir(), "spans.json")
			}
			res, err := fn(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			out := report(o, res)
			if !out.Correct {
				t.Errorf("%s trace=%v: checks broke: %v", name, trace, res.checkErr)
			}
			if out.Attempted == 0 || res.rounds == 0 {
				t.Errorf("%s trace=%v: attempted %d operations in %d rounds", name, trace, out.Attempted, res.rounds)
			}
			want := e2eUnits
			if trace {
				want = layerUnits
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(out.Metrics), len(want))
			}
			for f, n := range res.failures {
				// Evolve keeps the program's known wrong answers as failed
				// operations; nothing else may fail.
				if name != "evolve" || !knownWrong(f) {
					t.Errorf("%s trace=%v: %dx %s", name, trace, n, f)
				}
			}
		}
	}
}

// knownWrongAnswers are the evolve queries that the cross-analyst rewrite
// fault answers wrongly (README.md, "Failure accounting"); a wrong answer
// of any other query is a new fault.
var knownWrongAnswers = []string{"a2v1", "a2v2", "a2v3", "a2v4", "a7v1"}

// knownWrong reports whether a failure (as recorded by result.attempt) is
// a wrong answer of one of knownWrongAnswers.
func knownWrong(failure string) bool {
	for _, q := range knownWrongAnswers {
		if strings.HasPrefix(failure, "query "+q+": wrong answer") {
			return true
		}
	}
	return false
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
}
