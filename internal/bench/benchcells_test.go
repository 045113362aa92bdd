package bench

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// committedCells loads the committed benchmark snapshot's cells of one
// figure, in file order.
func committedCells(t *testing.T, figure string) []BenchCell {
	t.Helper()
	raw, err := os.ReadFile("../../BENCH_pr10.json")
	if err != nil {
		t.Fatal(err)
	}
	var all []BenchCell
	if err := json.Unmarshal(raw, &all); err != nil {
		t.Fatal(err)
	}
	var out []BenchCell
	for _, c := range all {
		if c.Figure == figure {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		t.Fatalf("BENCH_pr10.json has no %q cells", figure)
	}
	return out
}

// sameCells compares regenerated cells against the committed ones
// field by field, naming every field that moved.
func sameCells(t *testing.T, got, want []BenchCell) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("regenerated %d cells, committed %d", len(got), len(want))
	}
	for i := range want {
		g, w := reflect.ValueOf(got[i]), reflect.ValueOf(want[i])
		for f := 0; f < g.NumField(); f++ {
			if !reflect.DeepEqual(g.Field(f).Interface(), w.Field(f).Interface()) {
				t.Errorf("cell %d (%s %s%s): %s = %v, committed %v", i, want[i].Figure, want[i].Workload, want[i].Policy,
					g.Type().Field(f).Name, g.Field(f).Interface(), w.Field(f).Interface())
			}
		}
	}
}

// TestChaosBenchCellsPinned regenerates the fault-injection cells and
// holds them to the committed snapshot: the elastic driver's virtual
// timelines, faulted and fault-free, must not move.
func TestChaosBenchCellsPinned(t *testing.T) {
	got, err := ChaosBenchCells(6)
	if err != nil {
		t.Fatal(err)
	}
	sameCells(t, got, committedCells(t, "chaos"))
}

// TestClusterBenchCellsPinned regenerates the multi-tenant figure's
// per-policy cells and holds them to the committed snapshot. The
// launch-path allocation cell is left out: its count shifts under the
// race detector.
func TestClusterBenchCellsPinned(t *testing.T) {
	rows, err := ClusterGate()
	if err != nil {
		t.Fatal(err)
	}
	sameCells(t, clusterCells(rows), committedCells(t, "cluster"))
}
