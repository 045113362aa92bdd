// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (see DESIGN.md's per-experiment
// index). It is shared by the cmd/ tools and the repository's
// testing.B benchmarks, so numbers printed by both come from the same
// code paths.
package bench

import (
	"bytes"
	"fmt"
	"math/rand"

	"dfccl/internal/core"
	"dfccl/internal/fabric"
	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/trace"
)

// SizeSweep returns the Fig. 8-style buffer sweep in bytes.
func SizeSweep(minBytes, maxBytes int) []int {
	var out []int
	for s := minBytes; s <= maxBytes; s *= 2 {
		out = append(out, s)
	}
	return out
}

// HumanBytes formats a byte count the way NCCL-Tests does.
func HumanBytes(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dM", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dK", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// newSeededRNG builds a deterministic RNG for workload synthesis.
func newSeededRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// zeroBuf returns an empty buffer for timing-only collectives.
func zeroBuf() *mem.Buffer { return mem.NewBuffer(mem.DeviceSpace, mem.Float32, 0) }

// shape is a cluster of nodes × gpus RTX 3090s on the default links.
type shape struct{ nodes, gpus int }

func (s shape) cluster() *topo.Cluster {
	return topo.NewCluster(s.nodes, s.gpus, topo.RTX3090, topo.DefaultLinks)
}

// benchShapes are the one-, two- and four-node shapes the collective
// sweeps and the benchmark matrix run on.
var benchShapes = []shape{{1, 4}, {2, 4}, {4, 4}}

// allRanks is the rank set 0..n-1.
func allRanks(n int) []int {
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	return ranks
}

// uniformMatrix is the n×n AllToAllv count matrix with every block
// count elements long.
func uniformMatrix(n, count int) [][]int {
	m := make([][]int, n)
	for i := range m {
		m[i] = make([]int, n)
		for j := range m[i] {
			m[i][j] = count
		}
	}
	return m
}

// benchSpec is the spec the sweeps run for one (kind, per-rank size)
// point on n ranks, with the element count its cells and tuning-table
// rows are keyed by: reduce-scatter's count rounds up to a multiple of
// n so the recv shares divide evenly, and AllToAllv exchanges the
// uniform matrix of size-element blocks.
func benchSpec(kind prim.Kind, size, n int, algo prim.Algorithm) (prim.Spec, int) {
	s := prim.Spec{Kind: kind, Count: size, Algo: algo}
	switch kind {
	case prim.ReduceScatter:
		s.Count = (size + n - 1) / n * n
	case prim.AllToAllv:
		s.Count, s.Counts = 0, uniformMatrix(n, size)
		return s, size
	}
	return s, s.Count
}

// CollRunRow is one measured collective run: end-to-end latency, the
// per-transport wire split, and the concrete algorithm the spec
// resolved to (AlgoAuto resolves through the tuning table at Open).
type CollRunRow struct {
	E2E                 sim.Duration
	SHMBytes, RDMABytes int
	Resolved            prim.Algorithm
}

// runColl is the single-shot real-data runner behind every collective
// sweep: each rank of the cluster opens spec over the v2 handle API,
// fills its send buffer deterministically, and launches once after a
// common barrier. The caller sets the spec's Kind, Count or Counts,
// and Algo; the run uses float64 elements over all ranks, summing for
// the reduction kinds. net is the fabric (nil selects the unshared
// default); a non-nil rec is installed as the run's flight recorder
// (the tracing-overhead cells pin that doing so leaves the virtual
// timeline untouched). It returns the measured row, every rank's recv
// bytes for cross-algorithm comparison, and the run's total virtual
// time, the window a fabric utilization summary covers.
func runColl(cluster *topo.Cluster, net *fabric.Network, spec prim.Spec, rec *trace.Recorder) (CollRunRow, [][]byte, sim.Duration, error) {
	n := cluster.Size()
	spec.Type = mem.Float64
	spec.Ranks = allRanks(n)
	switch spec.Kind {
	case prim.AllReduce, prim.ReduceScatter, prim.Reduce:
		spec.Op = mem.Sum
	}
	e := sim.NewEngine()
	e.MaxTime = sim.Time(600 * sim.Second)
	cfg := core.DefaultConfig()
	cfg.Network = net
	cfg.Recorder, cfg.Tracer = rec, rec
	sys := core.NewSystem(e, cluster, cfg)
	bar := sim.NewBarrier("bench.barrier", n)
	var row CollRunRow
	outs := make([][]byte, n)
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for rank := 0; rank < n; rank++ {
		rank := rank
		e.Spawn(fmt.Sprintf("bench.coll.rank%d", rank), func(p *sim.Process) {
			rc := sys.Init(p, rank)
			coll, err := rc.Open(spec)
			if err != nil {
				fail(err)
				return
			}
			if rank == 0 {
				row.Resolved = coll.Spec().Algo
			}
			sendCount, recvCount := prim.BufferCountsFor(coll.Spec(), rank)
			send := mem.NewBuffer(mem.DeviceSpace, mem.Float64, sendCount)
			recv := mem.NewBuffer(mem.DeviceSpace, mem.Float64, recvCount)
			fillSend(send, spec, rank)
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
		return row, nil, 0, firstErr
	}
	if err != nil {
		return row, nil, 0, fmt.Errorf("bench: %v/%v: %w", spec.Kind, spec.Algo, err)
	}
	return row, outs, sim.Duration(e.Now()), nil
}

// fillSend writes rank's deterministic send data: for AllToAllv, block
// j of its row holds a2aSendVal(rank, j, i), so a misrouted block shows
// in the recv bytes; every other kind takes benchCollVal.
func fillSend(send *mem.Buffer, spec prim.Spec, rank int) {
	if spec.Kind == prim.AllToAllv {
		off := 0
		for dst, count := range spec.Counts[rank] {
			for i := 0; i < count; i++ {
				send.SetFloat64(off, a2aSendVal(rank, dst, i))
				off++
			}
		}
		return
	}
	for i := 0; i < send.Len(); i++ {
		send.SetFloat64(i, benchCollVal(rank, i))
	}
}

// benchCollVal is the deterministic send-buffer fill for the reduction
// collectives: small exact integers, so every reduction order is exact
// and cross-algorithm outputs compare byte for byte.
func benchCollVal(rank, i int) float64 {
	return float64(1 + (rank*37+i*13)%97)
}

// a2aSendVal is the deterministic fill of element i of block (src→dst).
func a2aSendVal(src, dst, i int) float64 {
	return float64(100000*src + 1000*dst + i + 1)
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
