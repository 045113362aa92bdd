// Package cluster runs data-carrying training jobs on one simulated
// deployment and proves that nothing a job goes through — sharing
// GPUs, daemons, and a fabric with other tenants, or losing and
// regaining ranks mid-collective — changes its data. Only timing may
// change.
//
// Two thin drivers share one data plane. The tenant driver (Run) takes
// SYSFLOW's split of a lightweight control plane from per-instance
// data planes: an arrival injector releases jobs from a Poisson or
// trace-driven schedule into the pending queue, and an admission
// controller re-runs a pluggable Policy (FIFO, priority, NIC-load
// bin-packing) on every arrival, completion, requeue, or revive,
// placing jobs onto possibly overlapping rank sets under a per-GPU
// slot cap. Jobs launch collectives tagged with WithJob and
// WithPriority, so daemon scheduling, trace spans, and fabric flows all
// carry the tenant, and daemons order their queues by priority. The
// elastic driver (RunElastic) runs one job pinned to its ranks through
// a kill/revive script with a restart-the-epoch protocol: a kill aborts
// the attempt, a revive requests re-formation at the next attempt
// boundary, and each new attempt re-forms the group over the survivors
// and restarts from the first uncommitted iteration.
//
// The data plane is the same for both: the workload set (DP, MoE with a
// runtime-gathered count matrix, ZeRO, and a hybrid), one member
// attempt loop that commits iterations through poisonable sim.Barriers,
// one fault injector, and one reference check. Every committed
// iteration is verified element-wise in-run and fingerprinted, and the
// fingerprints must be bit-identical to a pure out-of-sim reference
// over the membership that committed them (RefHashes); the tenant
// gates also compare against an actual solo re-run (SoloHashes). Kills
// surface as typed core.ErrRankLost aborts, never hangs: the engine's
// virtual-time bound turns any hang into a reported failure.
package cluster

import (
	"fmt"
	"slices"
	"sort"

	"dfccl/internal/metrics"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/trace"
)

// JobSpec describes one tenant job: what it trains, how many ranks it
// wants, and when it arrives.
type JobSpec struct {
	// ID is the positive tenant job ID; it tags the job's collectives,
	// spans, sends, and fabric flows (0 is reserved for untagged
	// single-job use). IDs must be unique within a trace.
	ID int
	// Kind selects the workload: "dp", "moe", "zero", or "hybrid".
	Kind string
	// Size is the number of ranks the job needs.
	Size int
	// Priority is the job's scheduling priority (higher = more urgent):
	// the priority admission policy orders on it, and every collective
	// the job opens carries it into the daemons' priority queues.
	Priority int
	// Iterations is the number of training iterations to commit.
	Iterations int
	// Layers is the dp/hybrid gradient-tensor count (default 2).
	Layers int
	// Algo selects the collective algorithm (default ring; AlgoAuto
	// defers to the tuning table per shape).
	Algo prim.Algorithm
	// Arrival is the job's arrival time from run start.
	Arrival sim.Duration
	// Compute is the per-iteration compute sleep (default 40µs).
	Compute sim.Duration
}

// EventKind distinguishes fault-script events.
type EventKind int

const (
	// Kill removes a rank mid-run (core.System.KillRank).
	Kill EventKind = iota
	// Revive returns a previously killed rank to service
	// (core.System.ReviveRank) once its abort drain completes.
	Revive
)

// String names the event kind.
func (k EventKind) String() string {
	if k == Kill {
		return "kill"
	}
	return "revive"
}

// Event is one scheduled fault: at virtual time At from the start of
// the run, Kind happens to Rank. Events fire in time order; events
// with equal times fire in script order. Jobs on a killed rank abort
// with the typed error; under the tenant driver they are requeued onto
// survivors and a revived rank becomes placeable again.
type Event struct {
	At   sim.Duration
	Kind EventKind
	Rank int
}

// Config describes one cluster run.
type Config struct {
	// Cluster is the simulated deployment all jobs share.
	Cluster *topo.Cluster
	// Jobs is the arrival trace (see Generate and BurstyTrace).
	Jobs []JobSpec
	// Policy is the admission/placement policy (default FIFO).
	Policy Policy
	// SlotsPerGPU caps how many jobs may run concurrently on one GPU
	// (default 2). Admission refuses placements that would exceed it —
	// the full-pool rejection path.
	SlotsPerGPU int
	// Oversub, when > 0, prices transfers on a shared congestion-aware
	// fabric with that leaf/spine oversubscription factor; 0 keeps the
	// legacy independent pricing (contention in queues only).
	Oversub float64
	// Faults is the kill/revive script.
	Faults []Event
	// Recorder, when non-nil, is installed as the run's flight
	// recorder: per-job action spans, sends, and fabric flow events all
	// land on one timeline.
	Recorder *trace.Recorder
}

// JobResult is one job's outcome.
type JobResult struct {
	// Spec echoes the job.
	Spec JobSpec
	// Ranks is the final placement (the one that committed the last
	// iteration; earlier attempts may have run elsewhere).
	Ranks []int
	// Arrival, Admitted, and Done are the job's lifecycle timestamps;
	// Admitted is the first admission (requeues do not reset it).
	Arrival, Admitted, Done sim.Time
	// Wait is Admitted-Arrival: time spent queued before first
	// placement. Latency is Done-Arrival: the job's full sojourn.
	Wait, Latency sim.Duration
	// Attempts counts placements, or group formations under the
	// elastic driver (1 = never requeued or re-formed).
	Attempts int
	// Committed is the number of committed iterations.
	Committed int
	// Trajectory records the membership that committed each iteration;
	// Hashes fingerprints the lead member's verified output per
	// committed iteration, and RefHashes is the pure out-of-sim solo
	// reference over the same trajectory.
	Trajectory [][]int
	// Hashes and RefHashes are the committed and reference
	// fingerprints; BitIdentical reports they match with in-run
	// element-wise verification also clean.
	Hashes, RefHashes []uint64
	// BitIdentical reports Hashes == RefHashes over a fully committed
	// job.
	BitIdentical bool
	// Failed marks a job that exceeded its attempt cap or could never
	// be placed.
	Failed bool
}

// Report is a cluster run's outcome.
type Report struct {
	// Policy names the admission policy that ran.
	Policy string
	// Jobs holds one result per configured job, in Config.Jobs order.
	Jobs []JobResult
	// Admissions counts successful placements (including re-placements
	// after requeue); Requeues counts jobs re-entering the pending
	// queue after a typed abort; Rejections counts admission passes
	// that left at least one pending job unplaced for lack of free
	// slots — the full-pool backpressure evidence.
	Admissions, Requeues, Rejections int
	FaultCounts
	// PoolCreated and PoolReused are the communicator pool's churn
	// counters over the whole run.
	PoolCreated, PoolReused int
	// JobBytes is the fabric's per-tenant byte attribution (key 0 =
	// untagged traffic; absent jobs moved no bytes).
	JobBytes map[int]int64
	Outcome
}

// Outcome is how a run ended.
type Outcome struct {
	// Elapsed is the run's total virtual time (the makespan).
	Elapsed sim.Duration
	// Hang is set when the run deadlocked, exceeded the virtual-time
	// bound, or livelocked past the attempt cap.
	Hang bool
	// Err holds the first fatal failure ("" on success).
	Err string
}

// FaultCounts counts fault-script events by whether they took effect.
// A kill is skipped when its target is already lost or was never
// initialized, a revive when its target is alive.
type FaultCounts struct {
	KillsApplied, KillsSkipped, RevivesApplied, RevivesSkipped int
}

// Ok reports the gate condition: no hang, no error, and every job
// fully committed with bit-identical outputs.
func (r *Report) Ok() bool {
	if r.Hang || r.Err != "" || len(r.Jobs) == 0 {
		return false
	}
	for i := range r.Jobs {
		j := &r.Jobs[i]
		if j.Failed || j.Committed != j.Spec.Iterations || !j.BitIdentical {
			return false
		}
	}
	return true
}

// MembershipChanged reports whether the committed trajectory spans
// more than one distinct membership — i.e. training provably continued
// across a rank leave or join.
func (j *JobResult) MembershipChanged() bool {
	for i := 1; i < len(j.Trajectory); i++ {
		if !slices.Equal(j.Trajectory[i-1], j.Trajectory[i]) {
			return true
		}
	}
	return false
}

// LatencySeries collects Done-Arrival sojourn times (in virtual ns)
// over the jobs matching pred (nil = all) into a metrics series, so
// callers report p50/p99 distributions instead of single-run means.
func (r *Report) LatencySeries(name string, pred func(*JobResult) bool) *metrics.Series {
	s := &metrics.Series{Name: name}
	for i := range r.Jobs {
		j := &r.Jobs[i]
		if pred == nil || pred(j) {
			s.Add(float64(j.Latency))
		}
	}
	return s
}

// validate checks a config before the engine spins up.
func (cfg *Config) validate() error {
	if cfg.Cluster == nil {
		return fmt.Errorf("cluster: nil Cluster")
	}
	if len(cfg.Jobs) == 0 {
		return fmt.Errorf("cluster: empty job trace")
	}
	seen := make(map[int]bool, len(cfg.Jobs))
	for i := range cfg.Jobs {
		j := &cfg.Jobs[i]
		if j.ID <= 0 {
			return fmt.Errorf("cluster: job %d has non-positive ID %d", i, j.ID)
		}
		if seen[j.ID] {
			return fmt.Errorf("cluster: duplicate job ID %d", j.ID)
		}
		seen[j.ID] = true
		if j.Size < 2 || j.Size > cfg.Cluster.Size() {
			return fmt.Errorf("cluster: job %d size %d out of range [2, %d]", j.ID, j.Size, cfg.Cluster.Size())
		}
		if j.Iterations <= 0 {
			return fmt.Errorf("cluster: job %d has %d iterations", j.ID, j.Iterations)
		}
		if _, err := newJobWorkload(*j, tenantShape); err != nil {
			return err
		}
	}
	return nil
}

// byArrival returns job indices sorted by (Arrival, ID) — the order the
// arrival injector releases them in.
func byArrival(jobs []JobSpec) []int {
	idx := make([]int, len(jobs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if jobs[idx[a]].Arrival != jobs[idx[b]].Arrival {
			return jobs[idx[a]].Arrival < jobs[idx[b]].Arrival
		}
		return jobs[idx[a]].ID < jobs[idx[b]].ID
	})
	return idx
}
