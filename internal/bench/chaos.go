package bench

import (
	"fmt"

	"dfccl/internal/cluster"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// ChaosRow is one fault-injection scenario's outcome for the
// `-fig chaos` gate.
type ChaosRow struct {
	// Name identifies the scenario.
	Name string
	// Report is the harness outcome (attempts, faults, trajectory,
	// bit-identical verdict).
	Report *cluster.ElasticReport
}

// String renders the row for the trainbench output.
func (r ChaosRow) String() string {
	rep := r.Report
	return fmt.Sprintf("%-28s attempts=%d kills=%d revives=%d typed-aborts=%d reforms=%d committed=%d bit-identical=%v",
		r.Name, rep.Attempts, rep.KillsApplied, rep.RevivesApplied, rep.AbortedAttempts, rep.InterruptedAttempts, rep.Committed, rep.BitIdentical)
}

// chaosScenario is one fixed entry of the gate's fault matrix.
type chaosScenario struct {
	name                   string
	cfg                    cluster.ElasticConfig
	wantReform, wantChange bool
}

// chaosScenarios builds the gate's fixed fault matrix: one scenario
// per elastic workload, covering a plain kill (DP), kill+revive under
// both MoE dispatch algorithms (single-node ring and two-node
// hierarchical), a kill+revive under DP with AlgoAuto on two nodes —
// where the tuning table resolves the gradient all-reduce to the
// hierarchical schedule and every re-formation re-resolves it over the
// surviving shape — and a double kill under ZeRO. Kills land mid-run
// (iterations take ≳150µs of compute each); revives arrive a few
// iterations later, forcing a second re-formation back to full
// strength.
func chaosScenarios(iters int) []chaosScenario {
	kill := 500 * sim.Microsecond
	second := kill + 400*sim.Microsecond
	return []chaosScenario{
		{
			name: "dp/kill",
			cfg: cluster.ElasticConfig{
				Workload: "dp", Cluster: topo.Server3090(4), Ranks: []int{0, 1, 2, 3},
				Iterations: iters,
				Faults:     []cluster.Event{{At: kill, Kind: cluster.Kill, Rank: 2}},
			},
			wantChange: true,
		},
		{
			name: "moe-ring/kill+revive",
			cfg: cluster.ElasticConfig{
				Workload: "moe", Cluster: topo.Server3090(4), Ranks: []int{0, 1, 2, 3},
				Iterations: iters, Algo: prim.AlgoRing,
				Faults: []cluster.Event{
					{At: kill, Kind: cluster.Kill, Rank: 1},
					{At: second, Kind: cluster.Revive, Rank: 1},
				},
			},
			wantReform: true, wantChange: true,
		},
		{
			name: "moe-hier/kill+revive",
			cfg: cluster.ElasticConfig{
				Workload: "moe", Cluster: topo.MultiNode3090(2), Ranks: []int{0, 1, 8, 9},
				Iterations: iters, Algo: prim.AlgoHierarchical,
				Faults: []cluster.Event{
					{At: kill, Kind: cluster.Kill, Rank: 9},
					{At: second, Kind: cluster.Revive, Rank: 9},
				},
			},
			wantReform: true, wantChange: true,
		},
		{
			name: "dp-auto/kill+revive",
			cfg: cluster.ElasticConfig{
				Workload: "dp", Cluster: topo.MultiNode3090(2), Ranks: []int{0, 1, 8, 9},
				Iterations: iters, Algo: prim.AlgoAuto,
				Faults: []cluster.Event{
					{At: kill, Kind: cluster.Kill, Rank: 9},
					{At: second, Kind: cluster.Revive, Rank: 9},
				},
			},
			wantReform: true, wantChange: true,
		},
		{
			name: "zero/double-kill",
			cfg: cluster.ElasticConfig{
				Workload: "zero", Cluster: topo.Server3090(4), Ranks: []int{0, 1, 2, 3},
				Iterations: iters,
				Faults: []cluster.Event{
					{At: kill, Kind: cluster.Kill, Rank: 3},
					{At: second, Kind: cluster.Kill, Rank: 0},
				},
			},
			wantChange: true,
		},
	}
}

// Chaos runs the fault-injection gate: a fixed matrix of kill/revive
// schedules against the elastic DP, MoE (ring and hierarchical
// dispatch, count matrix gathered at runtime), and ZeRO workloads. It
// returns an error — making `trainbench -fig chaos` exit non-zero —
// unless every scheduled fault surfaces as a typed ErrRankLost abort
// or a clean re-formation with zero hangs, every committed iteration
// is bit-identical to the serial fault-free reference over its
// membership trajectory, and the MoE scenarios commit iterations on
// both sides of a membership change (routing survived the churn on
// runtime-gathered counts).
func Chaos(iters int) ([]ChaosRow, error) {
	if iters < 4 {
		iters = 4
	}
	var rows []ChaosRow
	for _, sc := range chaosScenarios(iters) {
		rep, err := cluster.RunElastic(sc.cfg)
		rows = append(rows, ChaosRow{Name: sc.name, Report: rep})
		if err != nil {
			return rows, fmt.Errorf("bench: chaos %s: %w", sc.name, err)
		}
		wantKills := 0
		for _, ev := range sc.cfg.Faults {
			if ev.Kind == cluster.Kill {
				wantKills++
			}
		}
		if rep.KillsApplied != wantKills {
			return rows, fmt.Errorf("bench: chaos %s: %d/%d kills applied", sc.name, rep.KillsApplied, wantKills)
		}
		if rep.AbortedAttempts < 1 || rep.TypedErrors < 1 {
			return rows, fmt.Errorf("bench: chaos %s: kill never surfaced as a typed abort (%+v)", sc.name, rep)
		}
		if sc.wantReform && rep.RevivesApplied < 1 {
			return rows, fmt.Errorf("bench: chaos %s: revive never re-formed the group (%+v)", sc.name, rep)
		}
		if sc.wantChange && !rep.MembershipChanged() {
			return rows, fmt.Errorf("bench: chaos %s: committed trajectory never changed membership: %v", sc.name, rep.Trajectory)
		}
	}
	return rows, nil
}

// ChaosBenchCells prices the gate's fault matrix for the
// perf-trajectory snapshot: each scenario runs once with its schedule
// and once fault-free over the same config, and the difference in
// virtual runtime is the chaos-overhead column (aborted work plus
// re-formation cost). Deterministic — the simulation clock is virtual.
func ChaosBenchCells(iters int) ([]BenchCell, error) {
	var cells []BenchCell
	for _, sc := range chaosScenarios(iters) {
		faulted, err := cluster.RunElastic(sc.cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: chaos cell %s: %w", sc.name, err)
		}
		clean := sc.cfg
		clean.Faults = nil
		baseline, err := cluster.RunElastic(clean)
		if err != nil {
			return nil, fmt.Errorf("bench: chaos cell %s (fault-free): %w", sc.name, err)
		}
		nodes := len(sc.cfg.Cluster.Machines)
		cells = append(cells, BenchCell{
			Figure: "chaos", Workload: sc.name,
			Nodes: nodes, GPUsPerNode: sc.cfg.Cluster.Size() / nodes,
			Algo:            fmt.Sprint(sc.cfg.Algo),
			E2ENs:           int64(faulted.Elapsed),
			ChaosOverheadNs: int64(faulted.Elapsed - baseline.Elapsed),
		})
	}
	return cells, nil
}
