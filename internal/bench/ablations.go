package bench

import (
	"dfccl/internal/core"
	"dfccl/internal/orch"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/train"
)

// AblationResult pairs a configuration label with a measured value.
type AblationResult struct {
	Label string
	Value float64
	Unit  string
}

// AblationLazySave compares lazy context saving (only dirty contexts
// are written back) against always-saving, under a preemption-heavy
// disordered workload; it reports context saves and end-to-end time.
func AblationLazySave() (lazy, always []AblationResult, err error) {
	run := func(alwaysSave bool) ([]AblationResult, error) {
		cfg := core.DefaultConfig()
		cfg.AlwaysSaveContext = alwaysSave
		res, err := sec61Run(cfg, 5, 7, false)
		if err != nil {
			return nil, err
		}
		label := "lazy"
		if alwaysSave {
			label = "always"
		}
		return []AblationResult{
			{label + "-context-saves", float64(res.contextSaves), "saves"},
			{label + "-elapsed", float64(res.elapsed) / 1e6, "ms"},
		}, nil
	}
	if lazy, err = run(false); err != nil {
		return
	}
	always, err = run(true)
	return
}

// AblationQuitPeriod sweeps the daemon's voluntary-quit period under
// the device-synchronization workload: shorter periods unblock syncs
// faster but restart the daemon more often.
func AblationQuitPeriod(periods []sim.Duration) ([]AblationResult, error) {
	var out []AblationResult
	for _, qp := range periods {
		cfg := core.DefaultConfig()
		cfg.QuitPeriod = qp
		res, err := sec61Run(cfg, 3, 7, true)
		if err != nil {
			return nil, err
		}
		out = append(out,
			AblationResult{"quit=" + qp.String() + "-elapsed", float64(res.elapsed) / 1e6, "ms"},
			AblationResult{"quit=" + qp.String() + "-quits", float64(res.VoluntaryQuits), "quits"},
		)
	}
	return out, nil
}

// AblationOrdering compares FIFO against priority ordering on the
// data-parallel training workload with priorities favoring shallow
// layers (the backward-overlap scheme of Sec. 4.3).
func AblationOrdering(iterations int) (fifo, priority float64, err error) {
	run := func(order core.OrderPolicy, usePriorities bool) (float64, error) {
		e := sim.NewEngine()
		e.MaxTime = sim.Time(3600 * sim.Second)
		cluster := topo.Server3090(4)
		cfg := core.DefaultConfig()
		cfg.Order = order
		b := orch.NewDFCCL(e, cluster, cfg)
		res, err := train.RunDP(e, cluster, b, train.DPConfig{
			Model: train.ResNet50(), BatchPerGPU: 48, Iterations: iterations,
			Priority: usePriorities,
		})
		if err != nil {
			return 0, err
		}
		return res.Throughput, nil
	}
	if fifo, err = run(core.OrderFIFO, false); err != nil {
		return
	}
	priority, err = run(core.OrderPriority, true)
	return
}

// AblationBatchedSQERead compares per-entry SQE reads against the
// batched-read I/O optimization (the paper's stated future work) on a
// latency-bound burst: two GPUs submit a deep backlog of tiny
// collectives at once, so SQE-read time is a visible fraction of the
// makespan. Reported values are total elapsed milliseconds.
func AblationBatchedSQERead() (perEntry, batched float64, err error) {
	run := func(batch bool) (float64, error) {
		cfg := core.DefaultConfig()
		cfg.BatchedSQERead = batch
		const nColl, burst = 16, 16
		e := sim.NewEngine()
		e.MaxTime = sim.Time(600 * sim.Second)
		cluster := topo.Server3090(2)
		sys := core.NewSystem(e, cluster, cfg)
		ranks := []int{0, 1}
		var firstErr error
		for rank := 0; rank < 2; rank++ {
			rank := rank
			e.Spawn("burst", func(p *sim.Process) {
				rc := sys.Init(p, rank)
				colls := make([]*core.Collective, nColl)
				for c := 0; c < nColl; c++ {
					coll, err := rc.Open(collSpec(16, ranks), core.WithCollID(c))
					if err != nil {
						if firstErr == nil {
							firstErr = err
						}
						return
					}
					colls[c] = coll
				}
				// The whole backlog is one Batch: burst×nColl runs
				// submitted at once, awaited through a joined future.
				items := make([]core.BatchItem, 0, burst*nColl)
				for i := 0; i < burst; i++ {
					for c := 0; c < nColl; c++ {
						items = append(items, core.BatchItem{C: colls[c], Send: zeroBuf(), Recv: zeroBuf()})
					}
				}
				fut, err := core.Batch(p, items...)
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				if err := fut.Wait(p); err != nil && firstErr == nil {
					firstErr = err
				}
				rc.Destroy(p)
			})
		}
		if err := e.Run(); err != nil {
			return 0, err
		}
		if firstErr != nil {
			return 0, firstErr
		}
		return float64(e.Now()) / 1e6, nil
	}
	if perEntry, err = run(false); err != nil {
		return
	}
	batched, err = run(true)
	return
}
