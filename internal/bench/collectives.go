package bench

import (
	"fmt"

	"dfccl/internal/core"
	"dfccl/internal/mem"
	"dfccl/internal/metrics"
	"dfccl/internal/ncclsim"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// CollResult is one point of a Fig. 8 sweep or a Fig. 9 case study.
type CollResult struct {
	Lib   string
	Kind  prim.Kind
	GPUs  int
	Bytes int
	// E2E is invocation-to-completion latency (makespan across ranks),
	// averaged over iterations.
	E2E sim.Duration
	// CoreExec is the collective's on-GPU execution time (kernel run
	// time for NCCL; preparing overheads + primitive execution for
	// DFCCL), averaged over ranks and iterations.
	CoreExec sim.Duration
	// AlgoBW is algorithm bandwidth in GB/s.
	AlgoBW float64
}

func (r CollResult) String() string {
	return fmt.Sprintf("%-7s %-14v %2d GPUs %8s  e2e=%-12v core=%-12v bw=%.3f GB/s",
		r.Lib, r.Kind, r.GPUs, HumanBytes(r.Bytes), r.E2E, r.CoreExec, r.AlgoBW)
}

// CollConfig describes one collective measurement.
type CollConfig struct {
	Cluster *topo.Cluster
	Kind    prim.Kind
	// Bytes is the payload size (count × element size).
	Bytes int
	Iters int
	// Warmup iterations excluded from measurement (daemon startup,
	// communicator setup).
	Warmup int
}

func (c CollConfig) count() int { return c.Bytes / mem.Float32.Size() }

func (c CollConfig) spec() prim.Spec {
	count := c.count()
	// NCCL-Tests convention: the plotted size is the aggregate buffer;
	// all-gather's per-rank contribution is size/N.
	if c.Kind == prim.AllGather {
		count = count / c.Cluster.Size()
		if count < 1 {
			count = 1
		}
	}
	return prim.Spec{
		Kind: c.Kind, Count: count, Type: mem.Float32, Op: mem.Sum,
		Ranks: allRanks(c.Cluster.Size()), TimingOnly: true,
	}
}

// MeasureNCCL runs the collective over the NCCL baseline.
func MeasureNCCL(cfg CollConfig) (CollResult, error) {
	e := sim.NewEngine()
	e.MaxTime = sim.Time(120 * sim.Second)
	lib := ncclsim.New(e, cfg.Cluster)
	n := cfg.Cluster.Size()
	spec := cfg.spec()
	comm := lib.NewComm(spec.Ranks)
	bar := sim.NewBarrier("bench.barrier", n)
	var e2eSum, coreSum sim.Duration
	measured := 0
	for rank := 0; rank < n; rank++ {
		rank := rank
		e.Spawn("bench.nccl", func(p *sim.Process) {
			st := lib.Device(rank).NewStream()
			send := mem.NewBuffer(mem.DeviceSpace, mem.Float32, 0)
			recv := mem.NewBuffer(mem.DeviceSpace, mem.Float32, 0)
			for it := 0; it < cfg.Warmup+cfg.Iters; it++ {
				bar.Wait(p)
				start := p.Now()
				k := comm.Launch(p, st, rank, spec, send, recv)
				k.Wait(p)
				if it >= cfg.Warmup {
					if rank == 0 {
						e2eSum += p.Now().Sub(start)
						measured++
					}
					coreSum += k.CompletedAt.Sub(k.StartedAt)
				}
				bar.Wait(p)
			}
		})
	}
	if err := e.Run(); err != nil {
		return CollResult{}, fmt.Errorf("bench: nccl %v/%s: %w", cfg.Kind, HumanBytes(cfg.Bytes), err)
	}
	return CollResult{
		Lib: "nccl", Kind: cfg.Kind, GPUs: n, Bytes: cfg.Bytes,
		E2E:      e2eSum / sim.Duration(measured),
		CoreExec: coreSum / sim.Duration(measured*n),
		AlgoBW:   metrics.AlgoBandwidth(cfg.Bytes, e2eSum/sim.Duration(measured)),
	}, nil
}

// MeasureDFCCL runs the collective over DFCCL.
func MeasureDFCCL(cfg CollConfig, conf core.Config) (CollResult, error) {
	e := sim.NewEngine()
	e.MaxTime = sim.Time(120 * sim.Second)
	sys := core.NewSystem(e, cfg.Cluster, conf)
	n := cfg.Cluster.Size()
	spec := cfg.spec()
	bar := sim.NewBarrier("bench.barrier", n)
	var e2eSum, coreSum sim.Duration
	measured := 0
	var firstErr error
	for rank := 0; rank < n; rank++ {
		rank := rank
		e.Spawn("bench.dfccl", func(p *sim.Process) {
			rc := sys.Init(p, rank)
			coll, err := rc.Open(spec)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			send := mem.NewBuffer(mem.DeviceSpace, mem.Float32, 0)
			recv := mem.NewBuffer(mem.DeviceSpace, mem.Float32, 0)
			for it := 0; it < cfg.Warmup+cfg.Iters; it++ {
				bar.Wait(p)
				start := p.Now()
				fut, err := coll.Launch(p, send, recv)
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				if err := fut.Wait(p); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				if it >= cfg.Warmup {
					if rank == 0 {
						e2eSum += p.Now().Sub(start)
						measured++
					}
					coreSum += fut.CoreExecTime()
				}
				bar.Wait(p)
			}
			if err := coll.Close(p); err != nil && firstErr == nil {
				firstErr = err
			}
			rc.Destroy(p)
		})
	}
	err := e.Run()
	if firstErr != nil {
		return CollResult{}, firstErr
	}
	if err != nil {
		return CollResult{}, fmt.Errorf("bench: dfccl %v/%s: %w", cfg.Kind, HumanBytes(cfg.Bytes), err)
	}
	return CollResult{
		Lib: "dfccl", Kind: cfg.Kind, GPUs: n, Bytes: cfg.Bytes,
		E2E:      e2eSum / sim.Duration(measured),
		CoreExec: coreSum / sim.Duration(measured*n),
		AlgoBW:   metrics.AlgoBandwidth(cfg.Bytes, e2eSum/sim.Duration(measured)),
	}, nil
}

// Fig8Row is a (size, nccl, dfccl) comparison point.
type Fig8Row struct {
	Bytes int
	NCCL  CollResult
	DFCCL CollResult
}

// Fig8 sweeps buffer sizes for a collective on a cluster, producing
// the bandwidth/latency comparison of Fig. 8. iters=5 matches the
// paper's methodology (averaging repeated runs).
func Fig8(cluster *topo.Cluster, kind prim.Kind, minBytes, maxBytes, iters int) ([]Fig8Row, error) {
	var rows []Fig8Row
	for _, bytes := range SizeSweep(minBytes, maxBytes) {
		cfg := CollConfig{Cluster: cluster, Kind: kind, Bytes: bytes, Iters: iters, Warmup: 1}
		nres, err := MeasureNCCL(cfg)
		if err != nil {
			return nil, err
		}
		dres, err := MeasureDFCCL(cfg, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig8Row{Bytes: bytes, NCCL: nres, DFCCL: dres})
	}
	return rows, nil
}

// Fig9 runs the all-gather small/large case study (4KB and 4MB on
// eight 3090s), reporting end-to-end latency and core execution time.
func Fig9(iters int) (small, large Fig8Row, err error) {
	cluster := topo.Server3090(8)
	for i, bytes := range []int{4 << 10, 4 << 20} {
		cfg := CollConfig{Cluster: cluster, Kind: prim.AllGather, Bytes: bytes, Iters: iters, Warmup: 1}
		nres, e1 := MeasureNCCL(cfg)
		if e1 != nil {
			return small, large, e1
		}
		dres, e2 := MeasureDFCCL(cfg, core.DefaultConfig())
		if e2 != nil {
			return small, large, e2
		}
		row := Fig8Row{Bytes: bytes, NCCL: nres, DFCCL: dres}
		if i == 0 {
			small = row
		} else {
			large = row
		}
	}
	return small, large, nil
}

// Sec21Row compares NCCL against CUDA-aware-MPI-style all-reduce.
type Sec21Row struct {
	Bytes            int
	NCCLTime         sim.Duration
	MPITime          sim.Duration
	NCCLSpeedupRatio float64
}

// Sec21 reproduces the Sec. 2.1 motivation: NCCL overtakes host-staged
// MPI beyond ~32KB, by up to ~6.7×.
func Sec21(minBytes, maxBytes int) ([]Sec21Row, error) {
	cluster := topo.Server3090(8)
	ranks := []int{0, 1, 2, 3, 4, 5, 6, 7}
	var rows []Sec21Row
	for _, bytes := range SizeSweep(minBytes, maxBytes) {
		cfg := CollConfig{Cluster: cluster, Kind: prim.AllReduce, Bytes: bytes, Iters: 3, Warmup: 1}
		nres, err := MeasureNCCL(cfg)
		if err != nil {
			return nil, err
		}
		e := sim.NewEngine()
		count := bytes / 4
		sendBufs := make([]*mem.Buffer, 8)
		recvBufs := make([]*mem.Buffer, 8)
		for i := range sendBufs {
			sendBufs[i] = mem.NewBuffer(mem.DeviceSpace, mem.Float32, count)
			recvBufs[i] = mem.NewBuffer(mem.DeviceSpace, mem.Float32, count)
		}
		mpiEnd, err := ncclsim.MPIAllReduce(e, cluster, ranks, count, mem.Float32, mem.Sum, sendBufs, recvBufs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Sec21Row{
			Bytes:            bytes,
			NCCLTime:         nres.E2E,
			MPITime:          sim.Duration(mpiEnd),
			NCCLSpeedupRatio: float64(mpiEnd) / float64(nres.E2E),
		})
	}
	return rows, nil
}
