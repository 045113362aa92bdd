package bench

import (
	"fmt"
	"math/rand"

	"dfccl/internal/orch"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/train"
)

// DeadlockTally is a deadlock-ratio comparison over a set of
// disordered schedules: how many of the trial schedules each library
// failed to complete. DFCCL's claim is a flat zero; the single-stream
// NCCL baseline deadlocks on every disordered trial.
type DeadlockTally struct {
	Trials            int
	DFCCLDeadlocks    int
	BaselineDeadlocks int
}

// Ratio returns deadlocked/trials for the named side.
func (d DeadlockTally) Ratio(dfccl bool) float64 {
	if d.Trials == 0 {
		return 0
	}
	if dfccl {
		return float64(d.DFCCLDeadlocks) / float64(d.Trials)
	}
	return float64(d.BaselineDeadlocks) / float64(d.Trials)
}

// MoERow is one backend's result on the ordered MoE schedule.
type MoERow struct {
	Backend    string
	Throughput float64 // tokens/s
	// CommsCreated counts communicators ever built across the run's
	// dynamic-group churn: flat (pooled) for DFCCL, growing for NCCL.
	CommsCreated int
	// A2ABytes is the total dispatch/combine payload the run moved.
	A2ABytes int64
}

// MoEDispatch compares the two MoE dispatch layouts on the identical
// ordered schedule (DFCCL backend): the capacity-padded AllToAll
// reference against the exact-count AllToAllv the workload defaults
// to. The claim it measures: under the skewed router AllToAllv moves
// strictly fewer bytes while the combined token outputs stay
// bit-identical.
type MoEDispatch struct {
	// PaddedBytes / RaggedBytes are the total dispatch/combine payloads
	// of the padded-AllToAll and AllToAllv runs.
	PaddedBytes, RaggedBytes int64
	// BitIdentical reports whether the two runs' combined-output
	// fingerprints (Result.OutputHash) match. Both runs also verify
	// their outputs against the serial reference internally, so this is
	// the cross-run witness of that equivalence rather than the only
	// line of defense.
	BitIdentical bool
}

// Savings returns the fraction of the padded payload AllToAllv avoids.
func (d MoEDispatch) Savings() float64 {
	if d.PaddedBytes == 0 {
		return 0
	}
	return 1 - float64(d.RaggedBytes)/float64(d.PaddedBytes)
}

const moeBenchRanks = 4

func moeBenchConfig(iters int) train.MoEConfig {
	return train.MoEConfig{
		Ranks: moeBenchRanks, TokensPerRank: 16, ElemsPerToken: 8, TopK: 2,
		Iterations: iters, DenseGradElems: 4096,
	}
}

func commsCreated(b orch.Backend) int {
	switch v := b.(type) {
	case *orch.DFCCL:
		return v.Sys.CommsCreated()
	case interface{ CommsCreated() int }:
		return v.CommsCreated()
	default:
		return 0
	}
}

// MoE runs the Mixture-of-Experts expert-parallel scenario (top-2
// skewed routing, AllToAllv dispatch/combine, dynamic expert groups,
// dense-gradient all-reduce) on DFCCL and the NCCL baselines:
// throughput, communicator-construction counts, and dispatch bytes on
// the ordered schedule; a padded-AllToAll reference run on DFCCL whose
// combined outputs must hash identically to the AllToAllv run while
// moving strictly more bytes (the MoEDispatch comparison); plus a
// deadlock-ratio tally over disordered trials (one trial per iteration
// count 1..trials) against single-stream NCCL. All runs carry real
// token data and verify results exactly.
func MoE(iters, trials int) ([]MoERow, MoEDispatch, DeadlockTally, error) {
	var rows []MoERow
	var raggedRes *train.Result
	for _, name := range []string{"dfccl", "nccl-staticsort", "nccl-singlestream"} {
		cluster := topo.Server3090(moeBenchRanks)
		e, b := newBackend(name, cluster, 3600*sim.Second)
		cfg := moeBenchConfig(iters)
		// Dynamic groups need Deregister-capable backends (all three
		// here are); churn is the point of the scenario.
		cfg.DynamicGroups = true
		res, err := train.RunMoE(e, cluster, b, cfg)
		if err != nil {
			return nil, MoEDispatch{}, DeadlockTally{}, fmt.Errorf("moe %s: %w", name, err)
		}
		if name == "dfccl" {
			raggedRes = res
		}
		rows = append(rows, MoERow{Backend: name, Throughput: res.Throughput, CommsCreated: commsCreated(b), A2ABytes: res.A2ABytes})
	}
	if raggedRes == nil {
		return nil, MoEDispatch{}, DeadlockTally{}, fmt.Errorf("moe: dfccl run missing from backend sweep")
	}
	// Padded reference on DFCCL: same schedule, capacity-padded
	// AllToAll. Outputs must be bit-identical; bytes must be higher.
	var dispatch MoEDispatch
	{
		cluster := topo.Server3090(moeBenchRanks)
		e, b := newBackend("dfccl", cluster, 3600*sim.Second)
		cfg := moeBenchConfig(iters)
		cfg.DynamicGroups = true
		cfg.PaddedAllToAll = true
		res, err := train.RunMoE(e, cluster, b, cfg)
		if err != nil {
			return nil, MoEDispatch{}, DeadlockTally{}, fmt.Errorf("moe padded reference: %w", err)
		}
		dispatch = MoEDispatch{
			PaddedBytes:  res.A2ABytes,
			RaggedBytes:  raggedRes.A2ABytes,
			BitIdentical: res.OutputHash == raggedRes.OutputHash,
		}
	}
	tally := DeadlockTally{Trials: trials}
	for k := 1; k <= trials; k++ {
		cfg := moeBenchConfig(k) // each trial is a distinct schedule
		cfg.Disorder = true
		cluster := topo.Server3090(moeBenchRanks)
		e, b := newBackend("dfccl", cluster, 3600*sim.Second)
		if _, err := train.RunMoE(e, cluster, b, cfg); err != nil {
			tally.DFCCLDeadlocks++
		}
		cluster = topo.Server3090(moeBenchRanks)
		e, b = newBackend("nccl-singlestream", cluster, 600*sim.Second)
		if _, err := train.RunMoE(e, cluster, b, cfg); err != nil {
			tally.BaselineDeadlocks++
		}
	}
	return rows, dispatch, tally, nil
}

// ZeRORow is one (stage, backend) result of the sharded-DP scenario.
type ZeRORow struct {
	Stage      int
	Backend    string
	Throughput float64
	// CommsCreated counts communicator constructions under stage-3
	// open/close churn (only filled for the churn run).
	CommsCreated int
}

const zeroBenchRanks = 4

// zeroBenchModel is a mid-sized layer stack for the ZeRO scenario.
func zeroBenchModel() train.Model {
	var layers []train.Layer
	for i, elems := range []int{2048, 4096, 4096, 8192, 1024} {
		layers = append(layers, train.Layer{
			Name: fmt.Sprintf("l%d", i), GradElems: elems,
			FwdPerSample: 40 * sim.Microsecond, BwdPerSample: 80 * sim.Microsecond,
		})
	}
	return train.Model{Name: "zero-bench", Layers: layers}
}

// ZeRO runs ZeRO/FSDP sharded data parallelism (stages 1-3: per-layer
// gradient AllReduce/ReduceScatter + parameter AllGather, sharded
// momentum) on DFCCL and multi-stream NCCL, a stage-3 open/close churn
// run on DFCCL, and a deadlock-ratio tally of seeded disordered
// stage-2 schedules against single-stream NCCL. Every run verifies
// sharded parameters and optimizer state bit-for-bit against the
// unsharded reference.
func ZeRO(iters, trials int) ([]ZeRORow, DeadlockTally, error) {
	var rows []ZeRORow
	for stage := 1; stage <= 3; stage++ {
		for _, name := range []string{"dfccl", "nccl-staticsort"} {
			cluster := topo.Server3090(zeroBenchRanks)
			e, b := newBackend(name, cluster, 3600*sim.Second)
			cfg := train.ZeROConfig{
				Model: zeroBenchModel(), Stage: stage, Ranks: zeroBenchRanks,
				BatchPerGPU: 4, Iterations: iters,
			}
			res, err := train.RunZeRO(e, cluster, b, cfg)
			if err != nil {
				return nil, DeadlockTally{}, fmt.Errorf("zero stage %d %s: %w", stage, name, err)
			}
			rows = append(rows, ZeRORow{Stage: stage, Backend: name, Throughput: res.Throughput})
		}
	}
	// Stage-3 churn on DFCCL: reopen every per-layer collective each
	// iteration; CommsCreated stays flat thanks to the pool.
	{
		cluster := topo.Server3090(zeroBenchRanks)
		e, b := newBackend("dfccl", cluster, 3600*sim.Second)
		cfg := train.ZeROConfig{
			Model: zeroBenchModel(), Stage: 3, Ranks: zeroBenchRanks,
			BatchPerGPU: 4, Iterations: iters, Churn: true,
		}
		res, err := train.RunZeRO(e, cluster, b, cfg)
		if err != nil {
			return nil, DeadlockTally{}, fmt.Errorf("zero stage 3 churn: %w", err)
		}
		rows = append(rows, ZeRORow{Stage: 3, Backend: "dfccl-churn", Throughput: res.Throughput, CommsCreated: commsCreated(b)})
	}
	tally := DeadlockTally{Trials: trials}
	for k := 0; k < trials; k++ {
		mkRNGs := func() []*rand.Rand {
			rngs := make([]*rand.Rand, zeroBenchRanks)
			for r := range rngs {
				rngs[r] = newSeededRNG(int64(1000*k + r))
			}
			return rngs
		}
		rngs := mkRNGs()
		disorder := func(rank, iter int, order []int) {
			perm := rngs[rank].Perm(len(order))
			tmp := append([]int(nil), order...)
			for i, p := range perm {
				order[i] = tmp[p]
			}
		}
		cfg := train.ZeROConfig{
			Model: zeroBenchModel(), Stage: 2, Ranks: zeroBenchRanks,
			BatchPerGPU: 1, Iterations: 2, Disorder: disorder,
		}
		cluster := topo.Server3090(zeroBenchRanks)
		e, b := newBackend("dfccl", cluster, 3600*sim.Second)
		if _, err := train.RunZeRO(e, cluster, b, cfg); err != nil {
			tally.DFCCLDeadlocks++
		}
		// Fresh RNG state so the baseline sees the same permutations.
		rngs = mkRNGs()
		cluster = topo.Server3090(zeroBenchRanks)
		e, b = newBackend("nccl-singlestream", cluster, 600*sim.Second)
		if _, err := train.RunZeRO(e, cluster, b, cfg); err != nil {
			tally.BaselineDeadlocks++
		}
	}
	return rows, tally, nil
}
