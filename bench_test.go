// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark's "op" is one full experiment at reduced
// scale (so the default -benchtime completes); the cmd/ tools run the
// same harness at paper scale. Results that map onto the paper's
// reported numbers are emitted via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the reproduction next to Go's usual timing columns.
// EXPERIMENTS.md records a paper-vs-measured comparison for each.
package dfccl_test

import (
	"testing"

	"dfccl/internal/bench"
	"dfccl/internal/core"
	"dfccl/internal/deadlocksim"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/trace"
)

// --- Table 1: deadlock ratios in simulation-based analysis ----------

func benchTable1(b *testing.B, name string, rounds int) {
	var cfg deadlocksim.Config
	found := false
	for _, c := range deadlocksim.Table1Configs(rounds) {
		if c.Name == name {
			cfg, found = c, true
			break
		}
	}
	if !found {
		b.Fatalf("no Table 1 config %q", name)
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := deadlocksim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.Ratio()
	}
	b.ReportMetric(100*ratio, "deadlock-%")
}

func BenchmarkTable1_SingleQueue_3D444_dis1e6(b *testing.B) {
	benchTable1(b, "sq-3d(4,4,4)-dis1e-6", 2000)
}

func BenchmarkTable1_SingleQueue_Free18_dis1e5(b *testing.B) {
	benchTable1(b, "sq-free(1,8)-dis1e-5", 8000)
}

func BenchmarkTable1_Sync_Free3264_d4e5_s4e5(b *testing.B) {
	benchTable1(b, "sync-free(32,64)-d4e-5-s4e-5", 2000)
}

func BenchmarkTable1_Sync_Free3264_d4e5_s8e5(b *testing.B) {
	benchTable1(b, "sync-free(32,64)-d4e-5-s8e-5", 2000)
}

func BenchmarkTable1_Sync_Free32128_d4e5_s4e5(b *testing.B) {
	benchTable1(b, "sync-free(32,128)-d4e-5-s4e-5", 1000)
}

// --- Sec 2.1: NCCL vs CUDA-aware MPI --------------------------------

func BenchmarkSec21_NCCLvsMPI(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Sec21(32<<10, 4<<20)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.NCCLSpeedupRatio > ratio {
				ratio = r.NCCLSpeedupRatio
			}
		}
	}
	b.ReportMetric(ratio, "max-nccl-speedup-x")
}

// --- Sec 6.1: deadlock-prevention testing programs ------------------

func BenchmarkSec61_DisorderedAllReduce(b *testing.B) {
	var preempts int
	for i := 0; i < b.N; i++ {
		res, err := bench.Sec61Program1("dfccl", 5, 7)
		if err != nil {
			b.Fatal(err)
		}
		if res.Deadlocked {
			b.Fatal("DFCCL deadlocked")
		}
		preempts = res.Preemptions
	}
	b.ReportMetric(float64(preempts), "preemptions")
}

func BenchmarkSec61_WithDeviceSync(b *testing.B) {
	var quits int
	for i := 0; i < b.N; i++ {
		res, err := bench.Sec61Program2(5, 7)
		if err != nil {
			b.Fatal(err)
		}
		if res.Deadlocked {
			b.Fatal("DFCCL deadlocked")
		}
		quits = res.VoluntaryQuits
	}
	b.ReportMetric(float64(quits), "voluntary-quits")
}

// --- Fig 7: workload-independent overheads --------------------------

func BenchmarkFig7_Overheads(b *testing.B) {
	var r bench.Fig7Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = bench.Fig7()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.ReadSQE)/1000, "read-sqe-us")
	b.ReportMetric(float64(r.Preparing)/1000, "preparing-us")
	b.ReportMetric(float64(r.WriteCQE)/1000, "write-cqe-us")
}

func BenchmarkFig7_CQVariants(b *testing.B) {
	var m map[core.CQVariant]float64
	for i := 0; i < b.N; i++ {
		sweep, err := bench.Fig7CQSweep()
		if err != nil {
			b.Fatal(err)
		}
		m = map[core.CQVariant]float64{}
		for v, d := range sweep {
			m[v] = float64(d) / 1000
		}
	}
	b.ReportMetric(m[core.CQVanillaRing], "vanilla-e2e-us")
	b.ReportMetric(m[core.CQOptimizedRing], "optring-e2e-us")
	b.ReportMetric(m[core.CQOptimized], "opt-e2e-us")
}

// --- Fig 8: bandwidth and latency sweeps ----------------------------

func benchFig8(b *testing.B, cluster *topo.Cluster, kind prim.Kind, minB, maxB int) {
	var rows []bench.Fig8Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = bench.Fig8(cluster, kind, minB, maxB, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	first := rows[0]
	b.ReportMetric(last.NCCL.AlgoBW, "nccl-peak-GBps")
	b.ReportMetric(last.DFCCL.AlgoBW, "dfccl-peak-GBps")
	b.ReportMetric(float64(first.NCCL.E2E)/1000, "nccl-minlat-us")
	b.ReportMetric(float64(first.DFCCL.E2E)/1000, "dfccl-minlat-us")
}

func BenchmarkFig8_Broadcast8_3080Ti(b *testing.B) {
	benchFig8(b, topo.Server3080Ti(8), prim.Broadcast, 512, 4<<20)
}

func BenchmarkFig8_AllReduce8_3090(b *testing.B) {
	benchFig8(b, topo.Server3090(8), prim.AllReduce, 512, 4<<20)
}

func BenchmarkFig8_AllReduce32_MultiNode(b *testing.B) {
	benchFig8(b, topo.MultiNode3090(4), prim.AllReduce, 2<<10, 16<<20)
}

// --- Fig 9: end-to-end latency vs core execution time ---------------

func BenchmarkFig9_AllGatherSmallLarge(b *testing.B) {
	var small, large bench.Fig8Row
	var err error
	for i := 0; i < b.N; i++ {
		small, large, err = bench.Fig9(3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(small.NCCL.E2E)/1000, "4K-nccl-e2e-us")
	b.ReportMetric(float64(small.DFCCL.E2E)/1000, "4K-dfccl-e2e-us")
	b.ReportMetric(float64(large.NCCL.CoreExec)/1000, "4M-nccl-core-us")
	b.ReportMetric(float64(large.DFCCL.CoreExec)/1000, "4M-dfccl-core-us")
}

// --- Fig 10: ResNet50 data-parallel training ------------------------

func BenchmarkFig10_ResNet50DP(b *testing.B) {
	var rows []bench.Fig10Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = bench.Fig10(5)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Server == "3090" {
			b.ReportMetric(r.Throughput, r.Backend+"-samples/s")
		}
	}
}

// --- Fig 11: adaptive scheduling case study -------------------------

func BenchmarkFig11_AdaptiveVsNaive(b *testing.B) {
	var naive, adaptive bench.Fig11Result
	var err error
	for i := 0; i < b.N; i++ {
		naive, adaptive, err = bench.Fig11(2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(naive.MaxCtx), "naive-max-ctxswitch")
	b.ReportMetric(float64(adaptive.MaxCtx), "adaptive-max-ctxswitch")
	b.ReportMetric(float64(naive.MaxQueueLen), "naive-max-queuelen")
}

// --- Fig 12: ViT under DP / TP / 3D parallelism ---------------------

func BenchmarkFig12_ViT(b *testing.B) {
	var rows []bench.Fig12Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = bench.Fig12(5)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(100*(r.DFCCL-r.NCCL)/r.NCCL, r.Name+"-dfccl-vs-nccl-%")
	}
}

// --- Fig 13: GPT-2 under 3D hybrid parallelism ----------------------

func BenchmarkFig13_GPT2(b *testing.B) {
	var rows []bench.Fig13Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = bench.Fig13(5)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.NCCLIterMS, r.Name+"-nccl-ms")
		b.ReportMetric(r.DFCCLIterMS, r.Name+"-dfccl-ms")
	}
}

// --- Sec 6.2: memory overheads --------------------------------------

func BenchmarkSec62_MemoryFootprint(b *testing.B) {
	var shared, global, globalShared int
	for i := 0; i < b.N; i++ {
		shared, global, globalShared = core.MemoryFootprint(1000)
	}
	b.ReportMetric(float64(shared), "shared-B/block")
	b.ReportMetric(float64(global), "global-B/block")
	b.ReportMetric(float64(globalShared), "global-shared-B")
}

// --- Flight recorder: nil-recorder cost and observer effect ---------

// BenchmarkTraceProbe_NilRecorder pins the recording-free launch path:
// with Config.Recorder nil every executor pays one nil check per
// primitive and nothing else, so this benchmark's allocs/op is the
// pre-recorder baseline — any growth here means the nil path started
// allocating.
func BenchmarkTraceProbe_NilRecorder(b *testing.B) {
	b.ReportAllocs()
	var e2e sim.Duration
	var err error
	for i := 0; i < b.N; i++ {
		e2e, err = bench.TraceProbe(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(e2e)/1000, "e2e-us")
}

// BenchmarkTraceProbe_WithRecorder is the same run with the flight
// recorder installed: allocs/op rises (span/send appends), but e2e-us
// must match the nil-recorder run exactly — recording happens outside
// virtual time.
func BenchmarkTraceProbe_WithRecorder(b *testing.B) {
	b.ReportAllocs()
	var e2e sim.Duration
	var err error
	for i := 0; i < b.N; i++ {
		e2e, err = bench.TraceProbe(&trace.Recorder{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(e2e)/1000, "e2e-us")
}

// --- Simulator cost -------------------------------------------------

// BenchmarkAllToAllContentionSweep runs the 4-node all-to-all
// congestion sweep at oversubscription 1, 2 and 4: real bytes through
// every connector, so its B/op tracks the data plane's allocation
// (chunks and executor scratch come from mem's pool) plus the sweep's
// own send/recv buffers.
func BenchmarkAllToAllContentionSweep(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		if _, err := bench.AllToAllContentionSweep([]float64{1, 2, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations of DESIGN.md's called-out design choices -------------

func BenchmarkAblation_LazyContextSaving(b *testing.B) {
	var lazy, always []bench.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		lazy, always, err = bench.AblationLazySave()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range append(lazy, always...) {
		b.ReportMetric(r.Value, r.Label)
	}
}

func BenchmarkAblation_QuitPeriod(b *testing.B) {
	periods := []sim.Duration{100 * sim.Microsecond, 200 * sim.Microsecond, 800 * sim.Microsecond}
	var rows []bench.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = bench.AblationQuitPeriod(periods)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Value, r.Label)
	}
}

func BenchmarkAblation_OrderingPolicy(b *testing.B) {
	var fifo, prio float64
	var err error
	for i := 0; i < b.N; i++ {
		fifo, prio, err = bench.AblationOrdering(3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fifo, "fifo-samples/s")
	b.ReportMetric(prio, "priority-samples/s")
}

func BenchmarkAblation_BatchedSQERead(b *testing.B) {
	var perEntry, batched float64
	var err error
	for i := 0; i < b.N; i++ {
		perEntry, batched, err = bench.AblationBatchedSQERead()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(perEntry, "per-entry-ms")
	b.ReportMetric(batched, "batched-ms")
}
