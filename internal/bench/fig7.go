package bench

import (
	"dfccl/internal/core"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// Fig7Result carries the workload-independent overheads of Sec. 6.2 /
// Fig. 7: the daemon-kernel time components and the CQE write cost of
// each completion-queue implementation, plus the memory overheads.
type Fig7Result struct {
	// Fig. 7(b): time components for a collective's execution in the
	// daemon kernel (all-reduce on eight 3090 GPUs).
	ReadSQE   sim.Duration
	Preparing sim.Duration // parse SQE + load context
	WriteCQE  sim.Duration // optimized CQ

	// Fig. 7(c): CQE write time per CQ implementation.
	CQEVanillaRing   sim.Duration
	CQEOptimizedRing sim.Duration
	CQEOptimized     sim.Duration

	// Context switch costs (Sec. 6.2 prose).
	ContextLoad sim.Duration
	ContextSave sim.Duration

	// Memory overheads for 1,000 registered collectives (Sec. 6.2).
	SharedPerBlock int
	GlobalPerBlock int
	GlobalShared   int

	// MeasuredE2E cross-checks the model: end-to-end latency of one
	// small all-reduce through the full SQ → daemon → CQ → poller
	// path, which must exceed the sum of its components.
	MeasuredE2E sim.Duration
}

// Fig7 reports the overhead breakdown. The per-component values are
// the library's calibrated constants (they are the model — Fig. 7(b)
// of the paper measures the same fixed hardware costs); the end-to-end
// measurement exercises the real code path as a consistency check.
func Fig7() (Fig7Result, error) {
	r := Fig7Result{
		ReadSQE:          core.ReadSQETime,
		Preparing:        core.ParseSQETime + core.LoadContextTime,
		CQEVanillaRing:   core.NewCQ(core.CQVanillaRing, 8).WriteCost(),
		CQEOptimizedRing: core.NewCQ(core.CQOptimizedRing, 8).WriteCost(),
		CQEOptimized:     core.NewCQ(core.CQOptimized, 8).WriteCost(),
		ContextLoad:      core.LoadContextTime,
		ContextSave:      core.SaveContextTime,
	}
	r.WriteCQE = r.CQEOptimized
	r.SharedPerBlock, r.GlobalPerBlock, r.GlobalShared = core.MemoryFootprint(1000)

	cfg := CollConfig{Cluster: topo.Server3090(8), Kind: prim.AllReduce, Bytes: 1 << 10, Iters: 3, Warmup: 1}
	res, err := MeasureDFCCL(cfg, core.DefaultConfig())
	if err != nil {
		return r, err
	}
	r.MeasuredE2E = res.E2E
	return r, nil
}

// Fig7CQSweep measures the end-to-end effect of the three CQ variants
// on a stream of small collectives — the ablation behind Fig. 7(c).
func Fig7CQSweep() (map[core.CQVariant]sim.Duration, error) {
	out := make(map[core.CQVariant]sim.Duration)
	for _, v := range []core.CQVariant{core.CQVanillaRing, core.CQOptimizedRing, core.CQOptimized} {
		conf := core.DefaultConfig()
		conf.CQVariant = v
		cfg := CollConfig{Cluster: topo.Server3090(8), Kind: prim.AllReduce, Bytes: 1 << 10, Iters: 5, Warmup: 1}
		res, err := MeasureDFCCL(cfg, conf)
		if err != nil {
			return nil, err
		}
		out[v] = res.E2E
	}
	return out, nil
}
