package bench

import (
	"fmt"

	"dfccl/internal/fabric"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
)

// A2AContentionRow is one (oversubscription, skew, algorithm) cell of
// the congestion sweep: the same real-data AllToAllv priced once on a
// shared fabric with per-tier oversubscription and once under the
// legacy isolated-path model, so the row quantifies exactly what
// contention costs and where it lands (the per-tier summary).
type A2AContentionRow struct {
	// Nodes × GPUsPerNode is the cluster shape.
	Nodes, GPUsPerNode int
	// Skew names the count-matrix shape ("uniform" or "hot-row").
	Skew string
	// Oversub is the leaf and spine oversubscription factor of the
	// shared fabric (1 = full bisection).
	Oversub float64
	// Algo is the algorithm this row measured.
	Algo prim.Algorithm
	// E2E is the exchange latency on the shared (contended) fabric.
	E2E sim.Duration
	// UnsharedE2E is the same exchange under isolated-path pricing —
	// the isolated-sum prediction a congestion-blind model would give.
	UnsharedE2E sim.Duration
	// RDMABytes is the inter-node wire traffic (identical either way:
	// the fabric changes timing, never routing or data).
	RDMABytes int
	// BitIdentical reports that the shared-fabric recv buffers matched
	// both the unshared run and the ring reference byte for byte.
	BitIdentical bool
	// Tiers is the per-tier link-utilization summary of the shared run.
	Tiers []fabric.TierUtil
}

// Slowdown is the contention penalty: shared E2E over the isolated-sum
// prediction.
func (r A2AContentionRow) Slowdown() float64 {
	return float64(r.E2E) / float64(r.UnsharedE2E)
}

// String renders the row as one sweep-table line.
func (r A2AContentionRow) String() string {
	return fmt.Sprintf("%d×%d GPUs  %-8s F=%-3v %-13v e2e=%-12v unshared=%-12v ×%.2f  rdma=%-8s identical=%v",
		r.Nodes, r.GPUsPerNode, r.Skew, r.Oversub, r.Algo, r.E2E, r.UnsharedE2E,
		r.Slowdown(), HumanBytes(r.RDMABytes), r.BitIdentical)
}

// contentionScale multiplies the algorithm sweep's count matrices into
// the bandwidth-dominated regime (uniform blocks of 48 KB), where the
// spine is the bottleneck for both algorithms and the hierarchical
// advantage is a capacity statement rather than a latency one. Below
// this regime the flat ring hides its RDMA hops behind the store-and-
// forward critical path and contention only narrows the relative gap.
const contentionScale = 256

// AllToAllContentionSweep runs the 4-node congestion sweep: for each
// oversubscription factor and skew regime the same real-data AllToAllv
// runs under the flat ring and the hierarchical algorithm on a shared
// fabric (fabric.OversubConfig), with an isolated-path twin run giving
// the congestion-blind prediction. The claims the caller should enforce
// (cmd/trainbench does): with oversubscription above 1 the shared
// timing is strictly slower than the isolated-sum prediction (spine
// contention is visible), the hierarchical algorithm's advantage over
// the ring grows monotonically with the factor (it crosses the
// oversubscribed tiers fewer times), and every run's outputs are
// bit-identical — contention reprices, it never reroutes.
func AllToAllContentionSweep(oversubs []float64) ([]A2AContentionRow, error) {
	sh := shape{4, 4}
	var rows []A2AContentionRow
	for _, f := range oversubs {
		for _, skew := range []string{"uniform", "hot-row"} {
			counts := a2aCounts(sh.nodes*sh.gpus, skew)
			for i := range counts {
				for j := range counts[i] {
					counts[i][j] *= contentionScale
				}
			}
			var ringOuts [][]byte
			for _, algo := range []prim.Algorithm{prim.AlgoRing, prim.AlgoHierarchical} {
				spec := prim.Spec{Kind: prim.AllToAllv, Counts: counts, Algo: algo}
				cluster := sh.cluster()
				net := fabric.Shared(cluster, fabric.OversubConfig(f))
				row, outs, elapsed, err := runColl(cluster, net, spec, nil)
				if err != nil {
					return nil, err
				}
				unshRow, unshOuts, _, err := runColl(sh.cluster(), nil, spec, nil)
				if err != nil {
					return nil, err
				}
				if algo == prim.AlgoRing {
					ringOuts = outs
				}
				rows = append(rows, A2AContentionRow{
					Nodes: sh.nodes, GPUsPerNode: sh.gpus, Skew: skew, Oversub: f, Algo: algo,
					E2E: row.E2E, UnsharedE2E: unshRow.E2E, RDMABytes: row.RDMABytes,
					BitIdentical: bytesEqual(outs, unshOuts) && bytesEqual(outs, ringOuts),
					Tiers:        fabric.TierSummary(net.Snapshot(), elapsed),
				})
			}
		}
	}
	return rows, nil
}

// BenchCell is one row of the machine-readable benchmark matrix
// (BENCH_pr9.json): a collective size × shape × algorithm × fabric
// cell with its end-to-end latency and transport byte split, a
// fault-injection cell with its chaos-overhead column, or a
// tracing-overhead cell pinning the flight recorder's observer effect.
type BenchCell struct {
	// Figure tags the sweep this cell belongs to.
	Figure string `json:"figure"`
	// Nodes and GPUsPerNode give the cluster shape.
	Nodes       int `json:"nodes"`
	GPUsPerNode int `json:"gpus_per_node"`
	// Kind is the collective's NCCL-style name for the full-collective
	// matrix rows ("all-reduce", "all-gather", "reduce-scatter"); empty
	// on the legacy a2abench and chaos cells, which are all-to-all-v.
	Kind string `json:"kind,omitempty"`
	// Elems is the uniform per-pair element count (float64) for
	// all-to-all cells, and the per-rank Count for the full-collective
	// matrix cells.
	Elems int `json:"elems_per_pair"`
	// Algo is "ring" or "hierarchical".
	Algo string `json:"algo"`
	// Fabric is the pricing model: "unshared" or "oversub<F>".
	Fabric string `json:"fabric"`
	// Oversub is the oversubscription factor (0 for unshared).
	Oversub float64 `json:"oversub"`
	// E2ENs is the exchange's end-to-end latency in virtual ns.
	E2ENs int64 `json:"e2e_ns"`
	// SHMBytes and RDMABytes split the wire traffic by transport.
	SHMBytes  int `json:"shm_bytes"`
	RDMABytes int `json:"rdma_bytes"`
	// Workload tags chaos cells with their fault scenario ("" for
	// a2abench cells).
	Workload string `json:"workload,omitempty"`
	// ChaosOverheadNs is the chaos-overhead column: faulted virtual
	// runtime minus the fault-free runtime of the same training config
	// (0 for a2abench cells).
	ChaosOverheadNs int64 `json:"chaos_overhead_ns,omitempty"`
	// TraceOverheadNs is the tracing-overhead column on traceoverhead
	// cells: the virtual end-to-end latency with the flight recorder
	// installed minus the same run without it. The recorder spends no
	// virtual time, so the column is pinned at exactly 0 — any other
	// value means recording perturbed the simulated timeline.
	TraceOverheadNs int64 `json:"trace_overhead_ns"`
	// Policy and Jobs tag the multi-job contention cells (figure
	// "cluster") with their admission policy and trace length; E2ENs is
	// the run's makespan there.
	Policy string `json:"policy,omitempty"`
	Jobs   int    `json:"jobs,omitempty"`
	// P50Ns and P99Ns are job-sojourn percentiles over all jobs of a
	// cluster cell; HiPriP99Ns is the p99 over the high-priority class —
	// the column where the priority policy must beat FIFO.
	P50Ns      int64 `json:"p50_ns,omitempty"`
	P99Ns      int64 `json:"p99_ns,omitempty"`
	HiPriP99Ns int64 `json:"hi_pri_p99_ns,omitempty"`
	// AllocsPerOp pins the recording-free launch path's allocation
	// budget (figure "launchpath"), quantized to the nearest 32 so the
	// committed snapshot is stable while regressions of the
	// container/heap-boxing kind stay visible.
	AllocsPerOp int `json:"allocs_per_op,omitempty"`
}

// A2ABenchMatrix generates the all-to-all half of the benchmark
// matrix (FullBenchMatrix appends the full-collective cells): the
// a2abench cells followed by the fault-injection scenarios with their
// chaos-overhead column (ChaosBenchCells). Deterministic by
// construction — regenerating the file must be a no-op diff.
func A2ABenchMatrix() ([]BenchCell, error) {
	cells, err := a2aBenchCells()
	if err != nil {
		return nil, err
	}
	chaosCells, err := ChaosBenchCells(6)
	if err != nil {
		return nil, err
	}
	return append(cells, chaosCells...), nil
}

// a2aBenchCells is uniform all-to-all at three per-pair sizes across
// the node shapes under both algorithms.
func a2aBenchCells() ([]BenchCell, error) {
	return matrixCells("a2abench", []prim.Kind{prim.AllToAllv}, []int{24, 96, 384},
		[]prim.Algorithm{prim.AlgoRing, prim.AlgoHierarchical})
}

// CollBenchCells generates the full-collective half of the benchmark
// matrix: the three reduction kinds × payload sizes × ring /
// hierarchical / auto × node shapes.
func CollBenchCells() ([]BenchCell, error) {
	return matrixCells("collbench", []prim.Kind{prim.AllReduce, prim.AllGather, prim.ReduceScatter},
		[]int{64, 512, 4096}, []prim.Algorithm{prim.AlgoRing, prim.AlgoHierarchical, prim.AlgoAuto})
}

// matrixCells is the benchmark matrix's cell loop: shape × kind × size
// × algorithm, each cell priced on the unshared fabric and then on a
// 2:1-oversubscribed shared fabric. AllToAllv cells are labelled by
// their per-pair block size and carry no kind name.
func matrixCells(figure string, kinds []prim.Kind, sizes []int, algos []prim.Algorithm) ([]BenchCell, error) {
	const benchOversub = 2.0
	var cells []BenchCell
	for _, sh := range benchShapes {
		for _, kind := range kinds {
			for _, size := range sizes {
				for _, algo := range algos {
					for _, shared := range []bool{false, true} {
						cluster := sh.cluster()
						spec, elems := benchSpec(kind, size, cluster.Size(), algo)
						cell := BenchCell{
							Figure: figure, Nodes: sh.nodes, GPUsPerNode: sh.gpus,
							Elems: elems, Algo: fmt.Sprint(algo), Fabric: "unshared",
						}
						if kind != prim.AllToAllv {
							cell.Kind = kind.String()
						}
						var net *fabric.Network
						if shared {
							net = fabric.Shared(cluster, fabric.OversubConfig(benchOversub))
							cell.Fabric = fmt.Sprintf("oversub%g", benchOversub)
							cell.Oversub = benchOversub
						}
						row, _, _, err := runColl(cluster, net, spec, nil)
						if err != nil {
							return nil, err
						}
						cell.E2ENs = int64(row.E2E)
						cell.SHMBytes, cell.RDMABytes = row.SHMBytes, row.RDMABytes
						cells = append(cells, cell)
					}
				}
			}
		}
	}
	return cells, nil
}
