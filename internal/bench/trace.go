package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"dfccl/internal/core"
	"dfccl/internal/fabric"
	"dfccl/internal/mem"
	"dfccl/internal/metrics"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/trace"
)

// Trace-scenario shape: a 2×4 deployment on a 2:1-oversubscribed
// shared fabric running a DP gradient all-reduce (AlgoAuto) plus an
// MoE-style hierarchical all-to-all per iteration, with rank 5 killed
// mid-run, the survivors re-forming both collectives, and the victim
// revived at the end — every observability surface (executor spans,
// fabric flows, chaos marks, tune picks) exercised in one timeline.
const (
	traceNodes, traceGPUs = 2, 4
	traceVictim           = 5
	traceARElems          = 256
	traceA2AElems         = 32
	traceReformedIters    = 2
	traceMaxIters         = 50
	traceCompute          = 20 * sim.Microsecond
	traceKillAt           = 2 * sim.Millisecond
	traceOversub          = 2.0
	traceARCollID         = 1
	traceA2ACollID        = 2
)

// TraceResult is one trace-figure run's artifacts: the Chrome/Perfetto
// trace, the canonical metrics dump, and a human-readable summary of
// the reconciliation gates it passed.
type TraceResult struct {
	TraceJSON   []byte
	MetricsJSON []byte
	Summary     []string
}

// spanGate is one clean collective's expected span count on one GPU:
// Completions × NumPrimitives, collected at Close time.
type spanGate struct {
	coll, gpu, want int
}

// TraceFig runs the flight-recorder scenario twice and returns its
// artifacts, failing — the `trainbench -fig trace` exit gate — unless
// every reconciliation holds: trace-derived byte totals exactly equal
// the executors' per-transport accounting, span counts equal the
// primitive counts (Completions × NumPrimitives per clean collective),
// the chaos path left kill/abort/reform/revive marks, and the two runs
// produced byte-identical JSON.
func TraceFig() (*TraceResult, error) {
	first, err := traceScenario()
	if err != nil {
		return nil, err
	}
	second, err := traceScenario()
	if err != nil {
		return nil, fmt.Errorf("bench: trace rerun: %w", err)
	}
	if !bytes.Equal(first.TraceJSON, second.TraceJSON) {
		return nil, fmt.Errorf("bench: trace.json not deterministic: %d vs %d bytes", len(first.TraceJSON), len(second.TraceJSON))
	}
	if !bytes.Equal(first.MetricsJSON, second.MetricsJSON) {
		return nil, fmt.Errorf("bench: metrics.json not deterministic: %d vs %d bytes", len(first.MetricsJSON), len(second.MetricsJSON))
	}
	first.Summary = append(first.Summary, "determinism: second run byte-identical")
	return first, nil
}

// traceScenario executes the scenario once and checks every gate.
func traceScenario() (*TraceResult, error) {
	n := traceNodes * traceGPUs
	cluster := topo.NewCluster(traceNodes, traceGPUs, topo.RTX3090, topo.DefaultLinks)
	rec := &trace.Recorder{}
	cfg := core.DefaultConfig()
	cfg.Recorder = rec
	cfg.Tracer = rec
	cfg.Network = fabric.Shared(cluster, fabric.OversubConfig(traceOversub))
	e := sim.NewEngine()
	e.MaxTime = sim.Time(600 * sim.Second)
	sys := core.NewSystem(e, cluster, cfg)

	ranks := allRanks(n)
	arSpec := prim.Spec{Kind: prim.AllReduce, Count: traceARElems, Type: mem.Float64, Op: mem.Sum, Ranks: ranks, Algo: prim.AlgoAuto}
	a2aSpec := prim.Spec{Kind: prim.AllToAll, Count: traceA2AElems, Type: mem.Float64, Ranks: ranks, Algo: prim.AlgoHierarchical}

	var (
		iterLatency metrics.Series
		cleanIters  int
		gates       []spanGate
		firstErr    error
	)
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	killed := make([]bool, n)
	start := sim.NewBarrier("bench.barrier", n)

	// runIter launches the DP all-reduce then the MoE all-to-all; a
	// typed ErrRankLost anywhere means the kill landed.
	runIter := func(p *sim.Process, ar, a2a *core.Collective, arS, arR, aS, aR *mem.Buffer) error {
		fut, err := ar.Launch(p, arS, arR)
		if err != nil {
			return err
		}
		if err := fut.Wait(p); err != nil {
			return err
		}
		fut, err = a2a.Launch(p, aS, aR)
		if err != nil {
			return err
		}
		return fut.Wait(p)
	}

	for rank := 0; rank < n; rank++ {
		rank := rank
		e.Spawn(fmt.Sprintf("trace.rank%d", rank), func(p *sim.Process) {
			rc := sys.Init(p, rank)
			ar, err := rc.Open(arSpec, core.WithCollID(traceARCollID))
			if err != nil {
				fail(fmt.Errorf("rank %d open ar: %w", rank, err))
				return
			}
			a2a, err := rc.Open(a2aSpec, core.WithCollID(traceA2ACollID))
			if err != nil {
				fail(fmt.Errorf("rank %d open a2a: %w", rank, err))
				return
			}
			arS := mem.NewBuffer(mem.DeviceSpace, mem.Float64, traceARElems)
			arR := mem.NewBuffer(mem.DeviceSpace, mem.Float64, traceARElems)
			aS := mem.NewBuffer(mem.DeviceSpace, mem.Float64, traceA2AElems*n)
			aR := mem.NewBuffer(mem.DeviceSpace, mem.Float64, traceA2AElems*n)
			for i := 0; i < traceARElems; i++ {
				arS.SetFloat64(i, benchCollVal(rank, i))
			}
			for i := 0; i < aS.Len(); i++ {
				aS.SetFloat64(i, benchCollVal(rank, i))
			}
			start.Wait(p)
			iters := 0
			for {
				iterStart := p.Now()
				err := runIter(p, ar, a2a, arS, arR, aS, aR)
				if errors.Is(err, core.ErrRankLost) {
					killed[rank] = true
					break
				}
				if err != nil {
					fail(fmt.Errorf("rank %d iter %d: %w", rank, iters, err))
					return
				}
				if rank == 0 {
					iterLatency.Add(float64(p.Now().Sub(iterStart)))
				}
				iters++
				if iters > traceMaxIters {
					fail(fmt.Errorf("rank %d: kill never landed after %d iterations", rank, iters))
					return
				}
				p.Sleep(traceCompute)
			}
			if rank == 0 {
				cleanIters = iters
			}
			if rank == traceVictim {
				return // dead rank: its context is torn down by the kill
			}
			ar2, err := ar.Reform(p)
			if err != nil {
				fail(fmt.Errorf("rank %d reform ar: %w", rank, err))
				return
			}
			a2a2, err := a2a.Reform(p)
			if err != nil {
				fail(fmt.Errorf("rank %d reform a2a: %w", rank, err))
				return
			}
			sn := n - 1
			aS2 := mem.NewBuffer(mem.DeviceSpace, mem.Float64, traceA2AElems*sn)
			aR2 := mem.NewBuffer(mem.DeviceSpace, mem.Float64, traceA2AElems*sn)
			for i := 0; i < aS2.Len(); i++ {
				aS2.SetFloat64(i, benchCollVal(rank, i))
			}
			for j := 0; j < traceReformedIters; j++ {
				if err := runIter(p, ar2, a2a2, arS, arR, aS2, aR2); err != nil {
					fail(fmt.Errorf("rank %d reformed iter %d: %w", rank, j, err))
					return
				}
			}
			// The re-formed collectives ran clean: pin the span-count gate
			// Completions × NumPrimitives before Close retires them.
			for _, c := range []*core.Collective{ar2, a2a2} {
				st := c.Stats()
				gates = append(gates, spanGate{coll: c.ID(), gpu: rank, want: st.Completions * st.NumPrimitives})
				if st.PrimsExecuted != st.Completions*st.NumPrimitives {
					fail(fmt.Errorf("rank %d coll %d: executed %d primitives, want %d×%d",
						rank, c.ID(), st.PrimsExecuted, st.Completions, st.NumPrimitives))
				}
				if err := c.Close(p); err != nil {
					fail(fmt.Errorf("rank %d close %d: %w", rank, c.ID(), err))
				}
			}
			rc.Destroy(p)
		})
	}
	e.Spawn("trace.chaos", func(p *sim.Process) {
		p.Sleep(traceKillAt)
		sys.KillRank(traceVictim)
		for sys.ReviveRank(traceVictim) != nil {
			p.Sleep(5 * sim.Microsecond)
		}
	})
	if err := e.Run(); err != nil {
		return nil, fmt.Errorf("bench: trace scenario: %w", err)
	}
	if firstErr != nil {
		return nil, fmt.Errorf("bench: trace scenario: %w", firstErr)
	}
	for rank := 0; rank < n; rank++ {
		if !killed[rank] {
			return nil, fmt.Errorf("bench: rank %d never observed the kill", rank)
		}
	}
	if cleanIters < 1 {
		return nil, fmt.Errorf("bench: no clean iterations before the kill")
	}
	rec.Sort()

	// Gate 1 — byte reconciliation: the recorder's summed Sends must
	// exactly equal the executors' per-transport accounting.
	local, shm, rdma := rec.SendBytesBy()
	totals := sys.BytesSentTotals()
	if local != totals.Local || shm != totals.SHM || rdma != totals.RDMA {
		return nil, fmt.Errorf("bench: byte reconciliation failed: trace (local %d, shm %d, rdma %d) vs accounting %+v",
			local, shm, rdma, totals)
	}

	// Gate 2 — span-count reconciliation: one action span per executed
	// primitive, system-wide and per clean collective per GPU.
	if got, want := len(rec.Actions), sys.PrimsExecutedTotal(); got != want {
		return nil, fmt.Errorf("bench: span count %d != primitives executed %d", got, want)
	}
	perCollGPU := make(map[[2]int]int)
	for _, a := range rec.Actions {
		perCollGPU[[2]int{a.Coll, a.GPU}]++
	}
	for _, g := range gates {
		if got := perCollGPU[[2]int{g.coll, g.gpu}]; got != g.want {
			return nil, fmt.Errorf("bench: coll %d gpu %d: %d spans, want Completions×NumPrimitives = %d",
				g.coll, g.gpu, got, g.want)
		}
	}

	// Gate 3 — chaos and tuning marks on the timeline.
	for _, m := range []struct {
		kind trace.MarkKind
		want int
	}{
		{trace.MarkKill, 1},
		{trace.MarkRevive, 1},
		{trace.MarkAbort, 2},            // both groups abort on the kill
		{trace.MarkReform, 2 * (n - 1)}, // each survivor re-forms both
	} {
		if got := rec.MarkCount(m.kind); got != m.want {
			return nil, fmt.Errorf("bench: %v marks = %d, want %d", m.kind, got, m.want)
		}
	}
	if rec.MarkCount(trace.MarkTunePick) == 0 {
		return nil, fmt.Errorf("bench: no tune-pick marks despite AlgoAuto opens")
	}

	// Gate 4 — fabric flow spans: the oversubscribed shared fabric must
	// have priced transfers as flows on the recorder's timeline.
	if len(rec.Flows) == 0 {
		return nil, fmt.Errorf("bench: no fabric flow events on a shared fabric")
	}

	var tr bytes.Buffer
	if err := rec.WriteChromeTrace(&tr); err != nil {
		return nil, fmt.Errorf("bench: write trace: %w", err)
	}
	if !json.Valid(tr.Bytes()) {
		return nil, fmt.Errorf("bench: trace.json is not valid JSON")
	}

	reg := sys.Metrics()
	lat := reg.Histogram("workload.iter_latency_ns")
	lat.Samples = append(lat.Samples, iterLatency.Samples...)
	metricsJSON, err := reg.DumpCanonical()
	if err != nil {
		return nil, fmt.Errorf("bench: dump metrics: %w", err)
	}
	if !json.Valid(metricsJSON) {
		return nil, fmt.Errorf("bench: metrics.json is not valid JSON")
	}

	res := &TraceResult{TraceJSON: tr.Bytes(), MetricsJSON: metricsJSON}
	res.Summary = append(res.Summary,
		fmt.Sprintf("clean iterations before kill: %d; reformed iterations: %d over %d survivors", cleanIters, traceReformedIters, n-1),
		fmt.Sprintf("bytes reconciled: local %d, shm %d, rdma %d", local, shm, rdma),
		fmt.Sprintf("action spans reconciled: %d (= primitives executed)", len(rec.Actions)),
		fmt.Sprintf("fabric: %d flow events, %d saturation intervals", len(rec.Flows), len(rec.Sats)),
		fmt.Sprintf("marks: kill %d, abort %d, reform %d, revive %d, tune-pick %d",
			rec.MarkCount(trace.MarkKill), rec.MarkCount(trace.MarkAbort), rec.MarkCount(trace.MarkReform),
			rec.MarkCount(trace.MarkRevive), rec.MarkCount(trace.MarkTunePick)),
		fmt.Sprintf("iteration latency: p50 %.0fns p95 %.0fns p99 %.0fns over %d samples",
			iterLatency.Percentile(50), iterLatency.Percentile(95), iterLatency.Percentile(99), iterLatency.Len()),
	)
	return res, nil
}

// The trace probe's run: a ring all-reduce of probeElems elements on
// one node of probeGPUs GPUs. TraceProbe runs it and
// LaunchPathAllocCell labels its cell with it.
const probeNodes, probeGPUs, probeElems = 1, 4, 256

// TraceProbe runs the probe collective with the given recorder (nil =
// recording off) and returns its virtual end-to-end latency. The root
// package's benchmarks loop it with b.ReportAllocs to pin the
// nil-recorder launch path's host-side allocation count next to the
// recorded path's, and TraceOverheadCells uses full cells to pin the
// zero observer effect in virtual time.
func TraceProbe(rec *trace.Recorder) (sim.Duration, error) {
	cluster := shape{probeNodes, probeGPUs}.cluster()
	row, _, _, err := runColl(cluster, nil, prim.Spec{Kind: prim.AllReduce, Count: probeElems, Algo: prim.AlgoRing}, rec)
	return row.E2E, err
}

// TraceOverheadCells pins the flight recorder's observer effect for
// the benchmark matrix: each cell runs a collective with and without
// the recorder installed and reports the virtual-latency delta, which
// must be exactly 0 — recording happens outside virtual time, so a
// traced deployment measures bit-identically to an untraced one. (The
// host-side cost of the nil-recorder path is pinned separately by the
// root package's zero-allocation benchmark.)
func TraceOverheadCells() ([]BenchCell, error) {
	var cells []BenchCell
	for _, c := range []struct {
		kind  prim.Kind
		algo  prim.Algorithm
		elems int
	}{
		{prim.AllReduce, prim.AlgoRing, 1024},
		{prim.AllReduce, prim.AlgoHierarchical, 1024},
		{prim.AllToAll, prim.AlgoHierarchical, 96},
	} {
		sh := shape{2, 4}
		spec := prim.Spec{Kind: c.kind, Count: c.elems, Algo: c.algo}
		plain, _, _, err := runColl(sh.cluster(), nil, spec, nil)
		if err != nil {
			return nil, err
		}
		rec := &trace.Recorder{}
		traced, _, _, err := runColl(sh.cluster(), nil, spec, rec)
		if err != nil {
			return nil, err
		}
		if len(rec.Actions) == 0 || len(rec.Sends) == 0 {
			return nil, fmt.Errorf("bench: traced %v/%v run recorded nothing", c.kind, c.algo)
		}
		delta := int64(traced.E2E) - int64(plain.E2E)
		if delta != 0 {
			return nil, fmt.Errorf("bench: tracing perturbed %v/%v: %dns overhead", c.kind, c.algo, delta)
		}
		cells = append(cells, BenchCell{
			Figure: "traceoverhead", Nodes: sh.nodes, GPUsPerNode: sh.gpus,
			Kind: c.kind.String(), Elems: c.elems, Algo: fmt.Sprint(c.algo),
			Fabric: "unshared", E2ENs: int64(traced.E2E), TraceOverheadNs: delta,
		})
	}
	return cells, nil
}
