package bench

import (
	"fmt"

	"dfccl/internal/core"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// PoolChurnResult reports communicator-pool behavior under open/close
// churn of dynamic collective groups.
type PoolChurnResult struct {
	Cycles int
	// Created is how many communicators were ever constructed; with
	// Close returning them to the pool it stays at the number of
	// distinct concurrently-live rank sets (here 1), independent of
	// Cycles.
	Created int
	// Pooled is how many communicators sat in the pool at the end.
	Pooled int
	// Completed is the total collective runs completed across cycles.
	Completed int
}

// PoolChurn opens, launches, awaits, and closes a fresh collective
// group per cycle over the same GPUs: the dynamic-groups lifecycle
// that leaks communicators without Unregister. Each cycle uses a new
// collective ID, so a flat Created count demonstrates end-to-end pool
// recycling through Close.
func PoolChurn(nGPUs, cycles int) (PoolChurnResult, error) {
	e := sim.NewEngine()
	e.MaxTime = sim.Time(600 * sim.Second)
	sys := core.NewSystem(e, topo.Server3090(nGPUs), core.DefaultConfig())
	ranks := make([]int, nGPUs)
	for i := range ranks {
		ranks[i] = i
	}
	bar := sim.NewBarrier("bench.barrier", nGPUs)
	res := PoolChurnResult{Cycles: cycles}
	var firstErr error
	for rank := 0; rank < nGPUs; rank++ {
		rank := rank
		e.Spawn(fmt.Sprintf("bench.pool%d", rank), func(p *sim.Process) {
			rc := sys.Init(p, rank)
			fail := func(err error) {
				if firstErr == nil {
					firstErr = err
				}
			}
			for cy := 0; cy < cycles; cy++ {
				coll, err := rc.Open(collSpec(4<<10, ranks), core.WithCollID(100+cy))
				if err != nil {
					fail(err)
					return
				}
				fut, err := coll.Launch(p, zeroBuf(), zeroBuf())
				if err != nil {
					fail(err)
					return
				}
				if err := fut.Wait(p); err != nil {
					fail(err)
					return
				}
				res.Completed++
				if err := coll.Close(p); err != nil {
					fail(err)
					return
				}
				// All ranks must close (returning the communicator to
				// the pool) before any rank opens the next group,
				// otherwise the next acquire cannot reuse it.
				bar.Wait(p)
			}
			rc.Destroy(p)
		})
	}
	err := e.Run()
	if firstErr != nil {
		return res, firstErr
	}
	if err != nil {
		return res, err
	}
	res.Created = sys.CommsCreated()
	res.Pooled = sys.CommsPooled()
	return res, nil
}
