package bench

import (
	"fmt"
	"strings"

	"dfccl/internal/core"
	"dfccl/internal/deadlocksim"
	"dfccl/internal/mem"
	"dfccl/internal/ncclsim"
	"dfccl/internal/orch"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/train"
)

// newBackend builds an engine limited to maxTime and the named
// collective backend over it: "dfccl" (default configuration),
// "oneflow-static" and "nccl-staticsort" (NCCL behind a static launch-
// order sort, as OneFlow schedules it), "kungfu", "horovod", or
// "nccl-singlestream".
func newBackend(name string, cluster *topo.Cluster, maxTime sim.Duration) (*sim.Engine, orch.Backend) {
	e := sim.NewEngine()
	e.MaxTime = sim.Time(maxTime)
	switch name {
	case "dfccl":
		return e, orch.NewDFCCL(e, cluster, core.DefaultConfig())
	case "oneflow-static", "nccl-staticsort":
		return e, orch.NewStaticSort(e, cluster)
	case "kungfu":
		return e, orch.NewKungFu(e, cluster)
	case "horovod":
		return e, orch.NewHorovod(e, cluster)
	case "nccl-singlestream":
		return e, orch.NewNCCLSingleStream(e, cluster)
	}
	panic("bench: unknown backend " + name)
}

// Fig10Row is one bar of the ResNet50 data-parallel comparison.
type Fig10Row struct {
	Server     string
	Backend    string
	Throughput float64
}

// Fig10 runs ResNet50 data-parallel training on eight 3080Ti and eight
// 3090 GPUs across the four methods of the paper's Fig. 10: OneFlow
// static sorting, DFCCL, KungFu, and Horovod.
func Fig10(iterations int) ([]Fig10Row, error) {
	var rows []Fig10Row
	type server struct {
		name    string
		cluster func() *topo.Cluster
		batch   int
	}
	servers := []server{
		{"3080ti", func() *topo.Cluster { return topo.Server3080Ti(8) }, 48},
		{"3090", func() *topo.Cluster { return topo.Server3090(8) }, 96},
	}
	for _, sv := range servers {
		for _, name := range []string{"oneflow-static", "dfccl", "kungfu", "horovod"} {
			cluster := sv.cluster()
			e, b := newBackend(name, cluster, 3600*sim.Second)
			res, err := train.RunDP(e, cluster, b, train.DPConfig{
				Model: train.ResNet50(), BatchPerGPU: sv.batch, Iterations: iterations,
			})
			if err != nil {
				return nil, fmt.Errorf("fig10 %s/%s: %w", sv.name, name, err)
			}
			rows = append(rows, Fig10Row{Server: sv.name, Backend: name, Throughput: res.Throughput})
		}
	}
	return rows, nil
}

// Fig11Result carries the adaptive-vs-naive spin policy case study.
type Fig11Result struct {
	Policy     string
	Throughput float64
	// CtxSwitches[i] is the number of context switches of gradient
	// collective i on GPU 0 over the measured iterations; QueueLens[i]
	// is the task queue length after its last SQE fetch.
	CtxSwitches []int
	QueueLens   []int
	MaxCtx      int
	MaxQueueLen int
}

// Fig11 trains ResNet50 with DP on four 3090s under the naive fixed
// spin threshold (10,000, no adaptation) and under the adaptive policy
// (100,000 initial at queue front, ×20 boost), reproducing the paper's
// spike analysis. A straggler delay on GPU 2's launches recreates the
// burst scenario described in Sec. 6.4.1.
func Fig11(iterations int) (naive, adaptive Fig11Result, err error) {
	run := func(policy core.SpinPolicy, name string) (Fig11Result, error) {
		e := sim.NewEngine()
		e.MaxTime = sim.Time(3600 * sim.Second)
		cluster := topo.Server3090(4)
		cfg := core.DefaultConfig()
		cfg.Spin = policy
		b := orch.NewDFCCL(e, cluster, cfg)
		res, err := train.RunDP(e, cluster, b, train.DPConfig{
			Model: train.ResNet50(), BatchPerGPU: 96, Iterations: iterations,
			StragglerRank: 2, StragglerDelay: 3 * sim.Millisecond,
		})
		if err != nil {
			return Fig11Result{}, err
		}
		out := Fig11Result{Policy: name, Throughput: res.Throughput}
		rc := b.Sys.Init(nil, 0)
		for li := range train.ResNet50().Layers {
			ctx, _, qlen := rc.TaskStats(li)
			out.CtxSwitches = append(out.CtxSwitches, ctx)
			out.QueueLens = append(out.QueueLens, qlen)
			if ctx > out.MaxCtx {
				out.MaxCtx = ctx
			}
			if qlen > out.MaxQueueLen {
				out.MaxQueueLen = qlen
			}
		}
		return out, nil
	}
	naive, err = run(core.NaiveSpinPolicy(), "naive-fixed-10k")
	if err != nil {
		return
	}
	adaptive, err = run(core.DefaultSpinPolicy(), "adaptive")
	return
}

// Fig12Row is one ViT training configuration.
type Fig12Row struct {
	Name       string
	NCCL       float64 // static-sorted/manual NCCL throughput
	DFCCL      float64
	NCCLSeries []float64 // running-average throughput per iteration
	DFCCLSer   []float64
}

// hybridCase is one hybrid-parallel configuration of Fig. 12 or 13 on
// a number of 8-GPU 3090 nodes.
type hybridCase struct {
	name   string
	nodes  int
	hybrid train.HybridConfig
}

// runHybridPair runs a hybrid-parallel case on the static-sorted NCCL
// baseline and on DFCCL.
func runHybridPair(fig string, c hybridCase, iterations int) (nccl, dfccl *train.Result, err error) {
	c.hybrid.Iterations = iterations
	var res [2]*train.Result
	for i, lib := range []string{"nccl-staticsort", "dfccl"} {
		cluster := topo.MultiNode3090(c.nodes)
		e, b := newBackend(lib, cluster, 7200*sim.Second)
		if res[i], err = train.RunHybrid(e, cluster, b, c.hybrid); err != nil {
			return nil, nil, fmt.Errorf("%s %s/%s: %w", fig, c.name, lib, err)
		}
	}
	return res[0], res[1], nil
}

// Fig12 runs the four ViT configurations of Fig. 12: DP on 8 GPUs,
// TP on 8 GPUs, 3D hybrid (base) on 16 GPUs, 3D hybrid (large) on 16.
func Fig12(iterations int) ([]Fig12Row, error) {
	var rows []Fig12Row
	for _, c := range []hybridCase{
		{"vit-base-dp8", 1, train.HybridConfig{Model: train.ViTBase(), TP: 1, DP: 8, PP: 1, MicrobatchSize: 128, NumMicrobatches: 1}},
		{"vit-base-tp8", 1, train.HybridConfig{Model: train.ViTBase(), TP: 8, DP: 1, PP: 1, MicrobatchSize: 128, NumMicrobatches: 1}},
		{"vit-base-3d16", 2, train.HybridConfig{Model: train.ViTBase(), TP: 2, DP: 2, PP: 4, MicrobatchSize: 128, NumMicrobatches: 4}},
		{"vit-large-3d16", 2, train.HybridConfig{Model: train.ViTLarge(), TP: 2, DP: 2, PP: 4, MicrobatchSize: 128, NumMicrobatches: 4}},
	} {
		nccl, dfccl, err := runHybridPair("fig12", c, iterations)
		if err != nil {
			return nil, err
		}
		samples := c.hybrid.SamplesPerIteration()
		rows = append(rows, Fig12Row{
			Name: c.name, NCCL: nccl.Throughput, DFCCL: dfccl.Throughput,
			NCCLSeries: nccl.RunningThroughput(samples), DFCCLSer: dfccl.RunningThroughput(samples),
		})
	}
	return rows, nil
}

// Fig13Row is one GPT-2 configuration: per-iteration time and its
// coefficient of variation for both libraries.
type Fig13Row struct {
	Name              string
	NCCLIterMS        float64
	DFCCLIterMS       float64
	NCCLCoV, DFCCLCoV float64
}

// Fig13 runs GPT-2 under 3D hybrid parallelism on 8 and 16 GPUs with
// microbatch size 18, comparing per-iteration time and stability.
func Fig13(iterations int) ([]Fig13Row, error) {
	var rows []Fig13Row
	for _, c := range []hybridCase{
		{"gpt2-3d8", 1, train.HybridConfig{Model: train.GPT2(), TP: 2, DP: 2, PP: 2, MicrobatchSize: 18, NumMicrobatches: 4, JitterPct: 0.06, JitterSeed: 11}},
		{"gpt2-3d16", 2, train.HybridConfig{Model: train.GPT2(), TP: 2, DP: 2, PP: 4, MicrobatchSize: 18, NumMicrobatches: 4, JitterPct: 0.06, JitterSeed: 11}},
	} {
		nccl, dfccl, err := runHybridPair("fig13", c, iterations)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig13Row{
			Name:       c.name,
			NCCLIterMS: nccl.IterTimes.Mean() * 1000, DFCCLIterMS: dfccl.IterTimes.Mean() * 1000,
			NCCLCoV: nccl.IterTimes.CoV(), DFCCLCoV: dfccl.IterTimes.CoV(),
		})
	}
	return rows, nil
}

// Sec61Result summarizes one deadlock-prevention testing program.
type Sec61Result struct {
	Program        string
	Lib            string
	Deadlocked     bool
	Completed      int
	Preemptions    int
	VoluntaryQuits int
	// contextSaves and elapsed feed the ablations built on the
	// programs.
	contextSaves int
	elapsed      sim.Duration
}

// The Sec. 6.1 deployment: eight GPUs, eight all-reduces.
const sec61GPUs, sec61Colls = 8, 8

// sec61Workload generates the testing programs' schedule: a unique
// seeded random launch order per GPU, and all-reduce c of 64<<c
// float32 elements (256B .. 32KB).
func sec61Workload(seed int64) (orders [][]int, sizes []int) {
	rng := newSeededRNG(seed)
	orders = make([][]int, sec61GPUs)
	for i := range orders {
		orders[i] = rng.Perm(sec61Colls)
	}
	sizes = make([]int, sec61Colls)
	for i := range sizes {
		sizes[i] = 64 << i
	}
	return orders, sizes
}

// Sec61Program1 runs the first testing program (eight GPUs, eight
// all-reduces of 256B-1MB, unique random launch order per GPU,
// iterations of the whole set) over DFCCL or the NCCL baseline.
func Sec61Program1(lib string, iterations int, seed int64) (Sec61Result, error) {
	if lib == "nccl" {
		// Program 1 uses a single queue (stream) per GPU, the paper's
		// Fig. 1(c) regime; the NCCL baseline deadlocks there.
		return sec61NCCLSingleQueue(seed)
	}
	return sec61Run(core.DefaultConfig(), iterations, seed, false)
}

// Sec61Program2 inserts cudaDeviceSynchronize between the disordered
// all-reduces (DFCCL only; NCCL deadlocks already in program 1).
func Sec61Program2(iterations int, seed int64) (Sec61Result, error) {
	return sec61Run(core.DefaultConfig(), iterations, seed, true)
}

// sec61Run runs a testing program over DFCCL under cfg: program 1, or
// program 2 when withSync inserts a device synchronization after
// every launch.
func sec61Run(cfg core.Config, iterations int, seed int64, withSync bool) (Sec61Result, error) {
	orders, sizes := sec61Workload(seed)
	e := sim.NewEngine()
	e.MaxTime = sim.Time(3600 * sim.Second)
	sys := core.NewSystem(e, topo.Server3090(sec61GPUs), cfg)
	ranks := allRanks(sec61GPUs)
	res := Sec61Result{Program: "1", Lib: "dfccl"}
	if withSync {
		res.Program = "2"
	}
	var firstErr error
	for rank := 0; rank < sec61GPUs; rank++ {
		rank := rank
		e.Spawn("sec61", func(p *sim.Process) {
			rc := sys.Init(p, rank)
			colls := make([]*core.Collective, sec61Colls)
			for c := range colls {
				coll, err := rc.Open(collSpec(sizes[c], ranks), core.WithCollID(c))
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				colls[c] = coll
			}
			send := zeroBuf()
			recv := zeroBuf()
			for it := 0; it < iterations; it++ {
				for _, c := range orders[rank] {
					if err := colls[c].LaunchCB(p, send, recv, nil); err != nil {
						if firstErr == nil {
							firstErr = err
						}
						return
					}
					if withSync {
						rc.DeviceSynchronize(p)
					}
				}
				rc.WaitAll(p)
			}
			res.Completed += rc.Completed()
			res.Preemptions += rc.Stats.Preemptions
			res.VoluntaryQuits += rc.Stats.VoluntaryQuits
			res.contextSaves += rc.Stats.ContextSaves
			rc.Destroy(p)
		})
	}
	err := e.Run()
	if firstErr != nil {
		return res, firstErr
	}
	if err != nil {
		res.Deadlocked = true
	}
	res.elapsed = sim.Duration(e.Now())
	return res, nil
}

func collSpec(count int, ranks []int) prim.Spec {
	return prim.Spec{
		Kind: prim.AllReduce, Count: count, Type: mem.Float32, Op: mem.Sum,
		Ranks: ranks, TimingOnly: true,
	}
}

// sec61NCCLSingleQueue launches the eight disordered all-reduces on a
// single stream per GPU over the NCCL baseline; the engine reports the
// deadlock.
func sec61NCCLSingleQueue(seed int64) (Sec61Result, error) {
	orders, sizes := sec61Workload(seed)
	e := sim.NewEngine()
	e.MaxTime = sim.Time(600 * sim.Second)
	lib := ncclsim.New(e, topo.Server3090(sec61GPUs))
	ranks := allRanks(sec61GPUs)
	comms := make([]*ncclsim.Comm, len(sizes))
	for i := range comms {
		comms[i] = lib.NewComm(ranks)
	}
	for rank := 0; rank < sec61GPUs; rank++ {
		rank := rank
		e.Spawn("sec61.nccl", func(p *sim.Process) {
			st := lib.Device(rank).NewStream()
			send := zeroBuf()
			recv := zeroBuf()
			for _, c := range orders[rank] {
				comms[c].Launch(p, st, rank, collSpec(sizes[c], ranks), send, recv)
			}
		})
	}
	err := e.Run()
	res := Sec61Result{Program: "1", Lib: "nccl", Deadlocked: err != nil}
	return res, nil
}

// Table1 runs the full Table 1 grid with the given round count and
// returns the results alongside the paper's reported ratios.
func Table1(rounds int, bigConfigRounds int) ([]Table1Row, error) {
	return Table1Filtered(rounds, bigConfigRounds, "")
}

// Table1Filtered runs only the Table 1 configurations whose name
// contains substr (all of them when substr is empty) — the fast path
// for smoke runs and for iterating on a single configuration. A
// non-empty substr matching no configuration is an error, so a stale
// filter cannot masquerade as a passing run.
func Table1Filtered(rounds, bigConfigRounds int, substr string) ([]Table1Row, error) {
	var rows []Table1Row
	for _, cfg := range deadlocksim.Table1Configs(rounds) {
		if substr != "" && !strings.Contains(cfg.Name, substr) {
			continue
		}
		if cfg.NumGPUs > 1000 && bigConfigRounds > 0 {
			cfg.Rounds = bigConfigRounds
		}
		res, err := deadlocksim.Run(cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{
			Name:     cfg.Name,
			Measured: res.Ratio(),
			Paper:    paperTable1[cfg.Name],
		})
	}
	if substr != "" && len(rows) == 0 {
		return nil, fmt.Errorf("bench: no Table 1 configuration matches %q", substr)
	}
	return rows, nil
}

// Table1Row pairs a measured deadlock ratio with the paper's value.
type Table1Row struct {
	Name     string
	Measured float64
	Paper    float64
}

// paperTable1 records the ratios the paper reports, for side-by-side
// printing in EXPERIMENTS.md and cmd/deadlocksim.
var paperTable1 = map[string]float64{
	"sq-3d(4,4,4)-dis1e-7":                  0.0110,
	"sq-3d(4,4,4)-dis1e-6":                  0.0997,
	"sq-3d(8,6,64)-dis1e-9":                 0.0047,
	"sq-3d(8,6,64)-dis1e-8":                 0.0359,
	"sq-free(1,8)-dis1e-5":                  0.0121,
	"sq-free(32,64)-dis1e-6":                0.0098,
	"sq-free(32,64)-dis1e-5":                0.0945,
	"sq-free(32,128)-dis1e-6":               0.0172,
	"sync-3d(4,4,4)-d2e-3-s4e-3":            0.0068,
	"sync-3d(4,4,4)-d4e-3-s4e-3":            0.0138,
	"sync-3d(4,4,4)-d4e-3-s2e-3":            0.0032,
	"sync-3d(4,4,4)-800,2400-d4e-3-s4e-3":   0.0256,
	"sync-3d(8,6,64)-d8e-4-s8e-4":           0.0156,
	"sync-free(32,64)-d4e-6-s4e-5":          0.0081,
	"sync-free(32,64)-d4e-5-s4e-5":          0.0116,
	"sync-free(32,64)-d4e-5-s8e-5":          0.0656,
	"sync-free(32,64)-800,2400-d4e-5-s4e-5": 0.0694,
	"sync-free(32,128)-d4e-5-s4e-5":         0.0234,
}
