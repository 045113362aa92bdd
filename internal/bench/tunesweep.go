package bench

import (
	"fmt"

	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/tune"
)

// tuneShapes are the node shapes the sweep (and the committed table)
// covers; the picker nearest-matches shapes in between.
var tuneShapes = []shape{{1, 4}, {2, 2}, {2, 4}, {4, 4}}

// tuneProbeSizes is the per-rank payload ladder (elements) the sweep
// probes for each crossover.
var tuneProbeSizes = []int{16, 128, 1024, 4096}

// tuneKinds are the collectives with a hierarchical schedule to tune.
var tuneKinds = []prim.Kind{
	prim.AllReduce, prim.AllGather, prim.ReduceScatter, prim.AllToAll, prim.AllToAllv,
}

// TuneSweep is the auto-tuning sweep driver: for every (kind, node
// shape) cell it measures the flat ring against the hierarchical
// schedule across the probe-size ladder on the unshared fabric and
// derives the crossover — the smallest probed payload from which the
// hierarchical schedule never measured slower. The result is the
// committed tuning table (internal/tune/default_table.json, written by
// `trainbench -fig tune`); the sweep is deterministic, so regeneration
// is a no-op diff.
func TuneSweep() (*tune.Table, error) {
	tbl := &tune.Table{}
	for _, sh := range tuneShapes {
		for _, kind := range tuneKinds {
			keys := make([]int, 0, len(tuneProbeSizes))
			wins := make([]bool, 0, len(tuneProbeSizes))
			for _, size := range tuneProbeSizes {
				var e2e [2]sim.Duration
				var key int
				for i, algo := range []prim.Algorithm{prim.AlgoRing, prim.AlgoHierarchical} {
					cluster := sh.cluster()
					spec, elems := benchSpec(kind, size, cluster.Size(), algo)
					row, _, _, err := runColl(cluster, nil, spec, nil)
					if err != nil {
						return nil, err
					}
					e2e[i], key = row.E2E, elems
				}
				keys = append(keys, key)
				wins = append(wins, e2e[1] <= e2e[0])
			}
			cross := -1
			for i := len(wins) - 1; i >= 0; i-- {
				if !wins[i] {
					break
				}
				cross = keys[i]
			}
			if cross == keys[0] && wins[0] {
				cross = 0 // hierarchical won at every probe
			}
			tbl.Rows = append(tbl.Rows, tune.Row{
				Kind: kind.String(), Nodes: sh.nodes, GPUsPerNode: sh.gpus,
				Fabric: "unshared", CrossoverElems: cross,
			})
		}
	}
	return tbl, nil
}

// AutoGateRow is one cell of the ring-vs-hierarchical-vs-auto gate.
type AutoGateRow struct {
	Kind               prim.Kind
	Nodes, GPUsPerNode int
	Elems              int
	RingE2E, HierE2E   sim.Duration
	AutoE2E            sim.Duration
	// Resolved is the concrete algorithm AlgoAuto resolved to.
	Resolved prim.Algorithm
	// BitIdentical reports the auto run's outputs matched the ring
	// reference byte for byte.
	BitIdentical bool
}

// Winner is the faster concrete algorithm of the cell.
func (r AutoGateRow) Winner() sim.Duration {
	if r.HierE2E < r.RingE2E {
		return r.HierE2E
	}
	return r.RingE2E
}

// Pass reports whether auto matched the per-cell winner within the
// gate tolerance.
func (r AutoGateRow) Pass() bool {
	return r.BitIdentical && float64(r.AutoE2E) <= float64(r.Winner())*autoGateTolerance
}

// String renders the row as one gate-table line.
func (r AutoGateRow) String() string {
	return fmt.Sprintf("%-14v %d×%d GPUs %6d elems  ring=%-12v hier=%-12v auto=%-12v ->%-13v identical=%v pass=%v",
		r.Kind, r.Nodes, r.GPUsPerNode, r.Elems, r.RingE2E, r.HierE2E, r.AutoE2E, r.Resolved, r.BitIdentical, r.Pass())
}

// autoGateTolerance is the slack the gate allows between the auto pick
// and the per-cell winner: the sweep and the gate measure the same
// deterministic cells, so auto should match the winner exactly
// wherever the crossover representation can express it; the tolerance
// only absorbs cells where a non-monotone win pattern forced the
// conservative (ring) side of the crossover.
const autoGateTolerance = 1.02

// AutoAlgoGate is the `-fig ar` gate: for every (reduction kind, node
// shape, payload) cell it measures ring, hierarchical, and auto, and
// requires the auto pick to land on the per-cell winner within
// tolerance with bit-identical outputs. Returns the rows and whether
// every cell passed.
func AutoAlgoGate() ([]AutoGateRow, bool, error) {
	var rows []AutoGateRow
	ok := true
	for _, sh := range benchShapes {
		for _, kind := range []prim.Kind{prim.AllReduce, prim.AllGather, prim.ReduceScatter} {
			for _, size := range []int{16, 1024, 4096} {
				var runs [3]CollRunRow
				var outs [3][][]byte
				var elems int
				for i, algo := range []prim.Algorithm{prim.AlgoRing, prim.AlgoHierarchical, prim.AlgoAuto} {
					cluster := sh.cluster()
					spec, n := benchSpec(kind, size, cluster.Size(), algo)
					run, out, _, err := runColl(cluster, nil, spec, nil)
					if err != nil {
						return nil, false, err
					}
					runs[i], outs[i], elems = run, out, n
				}
				row := AutoGateRow{
					Kind: kind, Nodes: sh.nodes, GPUsPerNode: sh.gpus, Elems: elems,
					RingE2E: runs[0].E2E, HierE2E: runs[1].E2E, AutoE2E: runs[2].E2E,
					Resolved:     runs[2].Resolved,
					BitIdentical: bytesEqual(outs[0], outs[2]),
				}
				ok = ok && row.Pass()
				rows = append(rows, row)
			}
		}
	}
	return rows, ok, nil
}

// FullBenchMatrix is the BENCH_pr10.json matrix: the all-to-all and
// chaos cells of A2ABenchMatrix, the full-collective cells, the
// tracing-overhead cells pinning the flight recorder's zero observer
// effect, and the multi-job contention column (per-policy cluster
// cells plus the launch-path allocation cell).
func FullBenchMatrix() ([]BenchCell, error) {
	cells, err := A2ABenchMatrix()
	if err != nil {
		return nil, err
	}
	collCells, err := CollBenchCells()
	if err != nil {
		return nil, err
	}
	traceCells, err := TraceOverheadCells()
	if err != nil {
		return nil, err
	}
	clusterCells, err := ClusterBenchCells()
	if err != nil {
		return nil, err
	}
	cells = append(cells, collCells...)
	cells = append(cells, traceCells...)
	return append(cells, clusterCells...), nil
}
