package bench

import (
	"fmt"

	"dfccl/internal/prim"
	"dfccl/internal/sim"
)

// A2ARow is one (cluster shape, skew, algorithm) cell of the Fig. 8-
// style all-to-all algorithm sweep: the same count matrix exchanged
// with real data under the flat ring and the hierarchical algorithm,
// with end-to-end latency and the per-transport wire-traffic split.
type A2ARow struct {
	// Nodes × GPUsPerNode is the cluster shape.
	Nodes, GPUsPerNode int
	// Skew names the count-matrix shape ("uniform" or "hot-row").
	Skew string
	// Algo is the algorithm this row measured.
	Algo prim.Algorithm
	// E2E is invocation-to-completion latency of one exchange.
	E2E sim.Duration
	// SHMBytes / RDMABytes split the total wire traffic (all ranks,
	// store-and-forward hops included) by transport.
	SHMBytes, RDMABytes int
	// BitIdentical reports whether this row's recv buffers matched the
	// flat-ring reference byte for byte (trivially true for the ring
	// rows themselves).
	BitIdentical bool
}

// String renders the row as one sweep-table line.
func (r A2ARow) String() string {
	return fmt.Sprintf("%d×%d GPUs  %-8s %-13v e2e=%-12v shm=%-8s rdma=%-8s identical=%v",
		r.Nodes, r.GPUsPerNode, r.Skew, r.Algo, r.E2E,
		HumanBytes(r.SHMBytes), HumanBytes(r.RDMABytes), r.BitIdentical)
}

// a2aCounts builds the sweep's deterministic count matrix: "uniform"
// gives every pair the same block, "hot-row" concentrates traffic on
// one source and one destination (an MoE hot expert), leaving zero-
// count pairs behind — the regime where capacity padding and topology-
// blind routing both hurt.
func a2aCounts(n int, skew string) [][]int {
	m := make([][]int, n)
	for i := range m {
		m[i] = make([]int, n)
		for j := range m[i] {
			switch skew {
			case "uniform":
				m[i][j] = 96
			default: // hot-row
				switch {
				case i == 0:
					m[i][j] = 240
				case j == 1:
					m[i][j] = 180
				default:
					m[i][j] = (i*7 + j*3) % 5 * 16 // sparse background, zeros included
				}
			}
		}
	}
	return m
}

// AllToAllAlgoSweep is the Fig. 8-style algorithm sweep: for each
// cluster shape (1, 2, and 4 nodes) and skew regime it runs the same
// real-data AllToAllv under the flat ring and the hierarchical
// algorithm, verifying the outputs are bit-identical and reporting the
// per-transport wire bytes. The hierarchical claim the caller should
// enforce (cmd/trainbench does): on multi-node shapes its RDMA bytes
// are strictly below the ring's; on one node they are zero.
func AllToAllAlgoSweep() ([]A2ARow, error) {
	var rows []A2ARow
	for _, sh := range benchShapes {
		for _, skew := range []string{"uniform", "hot-row"} {
			cluster := sh.cluster()
			counts := a2aCounts(sh.nodes*sh.gpus, skew)
			var ringOuts [][]byte
			for _, algo := range []prim.Algorithm{prim.AlgoRing, prim.AlgoHierarchical} {
				row, outs, _, err := runColl(cluster, nil, prim.Spec{Kind: prim.AllToAllv, Counts: counts, Algo: algo}, nil)
				if err != nil {
					return nil, err
				}
				if algo == prim.AlgoRing {
					ringOuts = outs
				}
				rows = append(rows, A2ARow{
					Nodes: sh.nodes, GPUsPerNode: sh.gpus, Skew: skew, Algo: algo,
					E2E: row.E2E, SHMBytes: row.SHMBytes, RDMABytes: row.RDMABytes,
					BitIdentical: bytesEqual(outs, ringOuts),
				})
			}
		}
	}
	return rows, nil
}
