package bench

import (
	"bytes"
	"fmt"

	"dfccl/internal/core"
	"dfccl/internal/fabric"
	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
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

// a2aSendVal is the deterministic fill of element i of block (src→dst).
func a2aSendVal(src, dst, i int) float64 {
	return float64(100000*src + 1000*dst + i + 1)
}

// runA2A runs one real-data AllToAllv exchange over the v2 handle API
// with the given algorithm under the default (Unshared) pricing and
// returns the measured row plus every rank's recv-buffer bytes for
// cross-algorithm comparison.
func runA2A(cluster *topo.Cluster, counts [][]int, algo prim.Algorithm) (A2ARow, [][]byte, error) {
	row, outs, _, err := runA2AWith(cluster, nil, counts, algo)
	return row, outs, err
}

// runA2AWith is runA2A with an explicit fabric network (nil selects the
// system default, fabric.Unshared). When the network is contended it
// also returns the per-tier link-utilization summary over the run.
func runA2AWith(cluster *topo.Cluster, net *fabric.Network, counts [][]int, algo prim.Algorithm) (A2ARow, [][]byte, []fabric.TierUtil, error) {
	n := len(counts)
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	e := sim.NewEngine()
	e.MaxTime = sim.Time(600 * sim.Second)
	cfg := core.DefaultConfig()
	cfg.Network = net
	sys := core.NewSystem(e, cluster, cfg)
	bar := sim.NewBarrier("bench.barrier", n)
	row := A2ARow{Algo: algo}
	outs := make([][]byte, n)
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for rank := 0; rank < n; rank++ {
		rank := rank
		e.Spawn(fmt.Sprintf("bench.a2a.rank%d", rank), func(p *sim.Process) {
			rc := sys.Init(p, rank)
			spec := prim.Spec{Kind: prim.AllToAllv, Type: mem.Float64, Ranks: ranks}
			coll, err := rc.Open(spec, core.WithCounts(counts), core.WithAlgorithm(algo))
			if err != nil {
				fail(err)
				return
			}
			sendCount, recvCount := prim.BufferCountsFor(coll.Spec(), rank)
			send := mem.NewBuffer(mem.DeviceSpace, mem.Float64, sendCount)
			recv := mem.NewBuffer(mem.DeviceSpace, mem.Float64, recvCount)
			off := 0
			for dst := 0; dst < n; dst++ {
				for i := 0; i < counts[rank][dst]; i++ {
					send.SetFloat64(off, a2aSendVal(rank, dst, i))
					off++
				}
			}
			bar.Wait(p)
			start := p.Now()
			fut, err := coll.Launch(p, send, recv)
			if err != nil {
				fail(err)
				return
			}
			if err := fut.Wait(p); err != nil {
				fail(err)
				return
			}
			if rank == 0 {
				row.E2E = p.Now().Sub(start)
			}
			st := coll.Stats()
			row.SHMBytes += st.BytesSentBy.SHM
			row.RDMABytes += st.BytesSentBy.RDMA
			outs[rank] = append([]byte(nil), recv.Bytes()...)
			if err := coll.Close(p); err != nil {
				fail(err)
			}
			rc.Destroy(p)
		})
	}
	err := e.Run()
	if firstErr != nil {
		return row, nil, nil, firstErr
	}
	if err != nil {
		return row, nil, nil, fmt.Errorf("bench: a2a %v: %w", algo, err)
	}
	var tiers []fabric.TierUtil
	if net != nil && net.Contended() {
		tiers = fabric.TierSummary(net.Snapshot(), sim.Duration(e.Now()))
	}
	return row, outs, tiers, nil
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
	for _, shape := range []struct{ nodes, gpus int }{{1, 4}, {2, 4}, {4, 4}} {
		for _, skew := range []string{"uniform", "hot-row"} {
			cluster := topo.NewCluster(shape.nodes, shape.gpus, topo.RTX3090, topo.DefaultLinks)
			counts := a2aCounts(shape.nodes*shape.gpus, skew)
			ringRow, ringOuts, err := runA2A(cluster, counts, prim.AlgoRing)
			if err != nil {
				return nil, err
			}
			hierRow, hierOuts, err := runA2A(cluster, counts, prim.AlgoHierarchical)
			if err != nil {
				return nil, err
			}
			ringRow.BitIdentical = true
			hierRow.BitIdentical = bytesEqual(ringOuts, hierOuts)
			for _, r := range []A2ARow{ringRow, hierRow} {
				r.Nodes, r.GPUsPerNode, r.Skew = shape.nodes, shape.gpus, skew
				rows = append(rows, r)
			}
		}
	}
	return rows, nil
}

// bytesEqual compares two per-rank output sets byte for byte.
func bytesEqual(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
