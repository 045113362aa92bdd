package bench

import (
	"bytes"
	"testing"
)

// TestTraceFig runs the full flight-recorder scenario: TraceFig itself
// enforces the byte/span reconciliation, chaos-mark, and determinism
// gates, so the test only needs to assert it succeeds and produced
// both artifacts.
func TestTraceFig(t *testing.T) {
	res, err := TraceFig()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TraceJSON) == 0 || len(res.MetricsJSON) == 0 {
		t.Fatalf("empty artifacts: trace %d bytes, metrics %d bytes", len(res.TraceJSON), len(res.MetricsJSON))
	}
	for _, s := range res.Summary {
		t.Log(s)
	}
}

// TestTraceOverheadCells pins the observer effect: installing the
// recorder must not move the virtual timeline by a single nanosecond
// (TraceOverheadCells fails on any delta), and every cell must match
// the committed snapshot, TraceOverheadNs = 0 included.
func TestTraceOverheadCells(t *testing.T) {
	cells, err := TraceOverheadCells()
	if err != nil {
		t.Fatal(err)
	}
	sameCells(t, cells, committedCells(t, "traceoverhead"))
}

// TestTraceScenarioRerunsIdentical reruns the flight-recorder scenario
// and requires every run's trace and metrics to be byte-identical. The
// kill mid-run wakes every process blocked on the dead rank's groups;
// if that wake order varies, the virtual timeline after the kill does.
func TestTraceScenarioRerunsIdentical(t *testing.T) {
	const runs = 20
	first, err := traceScenario()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < runs; i++ {
		res, err := traceScenario()
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !bytes.Equal(res.TraceJSON, first.TraceJSON) {
			t.Fatalf("run %d: trace.json differs from run 0 (%d vs %d bytes)", i, len(res.TraceJSON), len(first.TraceJSON))
		}
		if !bytes.Equal(res.MetricsJSON, first.MetricsJSON) {
			t.Fatalf("run %d: metrics.json differs from run 0 (%d vs %d bytes)", i, len(res.MetricsJSON), len(first.MetricsJSON))
		}
	}
}
