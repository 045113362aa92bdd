package cluster

import (
	"errors"
	"fmt"
	"slices"

	"dfccl/internal/core"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// The elastic driver's fixed workload constants: its DP layer count and
// per-iteration compute sleep, which gives scheduled faults a window to
// land mid-iteration.
const (
	elasticLayers  = 3
	elasticCompute = 150 * sim.Microsecond
)

// ElasticConfig describes one elastic-training run: one job pinned to
// Ranks, driven through a kill/revive script.
type ElasticConfig struct {
	// Workload selects the training loop: "dp", "moe", "zero", or
	// "hybrid".
	Workload string
	// Cluster is the simulated deployment.
	Cluster *topo.Cluster
	// Ranks is the initial membership (global GPU indices).
	Ranks []int
	// Iterations is the number of training iterations to commit.
	Iterations int
	// Algo selects the collective algorithm for the workload's data
	// exchanges: ring, hierarchical, or auto — with auto the tuning
	// table resolves the concrete algorithm per (kind, shape) at every
	// re-formation.
	Algo prim.Algorithm
	// Faults is the kill/revive script.
	Faults []Event
}

// ElasticReport is an elastic run's outcome. Its JobResult holds the
// committed trajectory, the fingerprints, and the reference verdict;
// Attempts counts group formations (1 for a fault-free run).
type ElasticReport struct {
	JobResult
	FaultCounts
	// AbortedAttempts counts attempts ended by an error (a kill's typed
	// ErrRankLost); InterruptedAttempts counts clean re-formations
	// requested by a revive.
	AbortedAttempts, InterruptedAttempts int
	// TypedErrors counts futures and opens that resolved with
	// ErrRankLost across all members and attempts.
	TypedErrors int
	// Outcome.Elapsed of a faulted run exceeds a fault-free run of
	// the same config by the chaos overhead (aborted work plus
	// re-formation cost).
	Outcome
}

// Ok reports the gate condition: no hang, no untyped error, and every
// iteration committed bit-identical to the reference.
func (r *ElasticReport) Ok() bool {
	return !r.Hang && r.Err == "" && r.Committed > 0 && r.BitIdentical
}

// RunElastic runs one job through its fault script with a
// restart-the-epoch protocol and returns its report. Training proceeds
// in attempts over a fixed membership until every iteration commits, a
// kill aborts the attempt (every member's future resolves with the
// typed error and the commit barriers are poisoned), or a revive
// requests re-formation. Between attempts the controller applies due
// revives and re-forms the group over the current survivors; the
// communicator pool rebuilds ring and HierFabric wiring for the new
// shape, and training restarts from the first uncommitted iteration.
// Daemons run FIFO, and each member drains its rank context before
// teardown. The returned error is non-nil exactly when the report is
// not Ok.
func RunElastic(cfg ElasticConfig) (*ElasticReport, error) {
	spec := JobSpec{Kind: cfg.Workload, Size: len(cfg.Ranks), Iterations: cfg.Iterations,
		Layers: elasticLayers, Algo: cfg.Algo, Compute: elasticCompute}
	rep := &ElasticReport{JobResult: JobResult{Spec: spec}}
	if cfg.Iterations <= 0 || len(cfg.Ranks) == 0 {
		rep.Err = fmt.Sprintf("cluster: bad elastic config: %d iterations over %v", cfg.Iterations, cfg.Ranks)
		return rep, errors.New(rep.Err)
	}
	if _, err := newJobWorkload(spec, elasticShape); err != nil {
		rep.Err = err.Error()
		return rep, err
	}

	pl := newPlane("chaos", elasticShape, cfg.Cluster, core.DefaultConfig(), true)
	j := newJobRun(pl, spec, &rep.JobResult)
	initial := slices.Sorted(slices.Values(cfg.Ranks))

	var pendRevive []int
	pl.inject(cfg.Faults, &rep.FaultCounts, func(p *sim.Process, rank int) {
		if !pl.sys.RankLost(rank) {
			rep.RevivesSkipped++
			return
		}
		pendRevive = append(pendRevive, rank)
		j.interrupted = true // re-form at the next boundary
	})

	pl.e.Spawn("chaos.controller", func(p *sim.Process) {
		attemptCap := cfg.Iterations + 2*len(cfg.Faults) + 4
		for rep.Committed < cfg.Iterations {
			rep.Attempts++
			if rep.Attempts > attemptCap {
				rep.Hang = true
				rep.Err = fmt.Sprintf("cluster: livelock: %d attempts for %d iterations", rep.Attempts, cfg.Iterations)
				break
			}
			for _, rank := range pendRevive {
				if !pl.sys.RankLost(rank) {
					continue
				}
				if err := pl.reviveRank(p, rank); err != nil {
					pl.fail(err)
				} else {
					rep.RevivesApplied++
				}
			}
			pendRevive = nil
			if pl.err != nil {
				break
			}
			members := slices.DeleteFunc(slices.Clone(initial), pl.sys.RankLost)
			if len(members) == 0 {
				pl.fail(errors.New("cluster: fault script killed every rank"))
				break
			}
			j.start(pl, members)
			j.await(p)
			if j.aborted {
				rep.AbortedAttempts++
			} else if j.interrupted && rep.Committed < cfg.Iterations {
				rep.InterruptedAttempts++
			}
			if pl.err != nil {
				break
			}
		}
		pl.destroy(p, initial)
	})

	pl.run(&rep.Outcome)
	rep.TypedErrors = j.typedErrors
	rep.verify(pl.shape)
	rep.BitIdentical = rep.BitIdentical && pl.err == nil
	if !rep.Ok() {
		if rep.Err == "" {
			rep.Err = fmt.Sprintf("cluster: committed %d/%d iterations, bit-identical=%v", rep.Committed, cfg.Iterations, rep.BitIdentical)
		}
		return rep, errors.New(rep.Err)
	}
	return rep, nil
}
