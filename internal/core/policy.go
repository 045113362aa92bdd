package core

import (
	"dfccl/internal/fabric"
	"dfccl/internal/sim"
	"dfccl/internal/trace"
	"dfccl/internal/tune"
)

// SpinPolicy configures the spin-threshold half of the stickiness
// adjustment scheme (Sec. 4.3). The adaptive policy assigns the largest
// initial threshold to the task-queue front, decaying by position, and
// multiplies a collective's threshold after each successful primitive —
// which is what converges all GPUs onto the same collective
// (decentralized dynamic gang-scheduling). The naive policy — a fixed
// threshold with no adaptation — reproduces the throughput collapse of
// Fig. 11.
type SpinPolicy struct {
	// Adaptive enables position-graded initial thresholds and
	// post-success boosting.
	Adaptive bool
	// InitialFront is the initial threshold (in polls) for the task at
	// the queue front; the paper's profiled value is 100,000.
	InitialFront int64
	// PositionDecay scales the initial threshold per queue position.
	PositionDecay float64
	// MinInitial floors the position-decayed initial threshold.
	MinInitial int64
	// BoostFactor multiplies the threshold after a successful
	// primitive; the paper's case study uses 20.
	BoostFactor float64
	// MaxThreshold caps the boosted threshold.
	MaxThreshold int64
	// FixedThreshold is the per-primitive threshold when Adaptive is
	// false; the paper's naive case study uses 10,000.
	FixedThreshold int64
}

// DefaultSpinPolicy returns the paper's profiled adaptive policy.
func DefaultSpinPolicy() SpinPolicy {
	return SpinPolicy{
		Adaptive:       true,
		InitialFront:   100_000,
		PositionDecay:  0.5,
		MinInitial:     2_000,
		BoostFactor:    20,
		MaxThreshold:   4_000_000,
		FixedThreshold: 10_000,
	}
}

// NaiveSpinPolicy returns the fixed-threshold policy of the Fig. 11
// case study.
func NaiveSpinPolicy() SpinPolicy {
	p := DefaultSpinPolicy()
	p.Adaptive = false
	return p
}

// initialThreshold computes the threshold for a task at queue position
// pos at the start of a scheduler pass.
func (sp SpinPolicy) initialThreshold(pos int) int64 {
	if !sp.Adaptive {
		return sp.FixedThreshold
	}
	t := float64(sp.InitialFront)
	for i := 0; i < pos; i++ {
		t *= sp.PositionDecay
		if int64(t) <= sp.MinInitial {
			return sp.MinInitial
		}
	}
	return int64(t)
}

// boost raises a task's threshold after primitive success.
func (sp SpinPolicy) boost(cur int64) int64 {
	if !sp.Adaptive {
		return cur
	}
	b := int64(float64(cur) * sp.BoostFactor)
	if b > sp.MaxThreshold {
		return sp.MaxThreshold
	}
	return b
}

// budget converts a poll-count threshold to a virtual-time spin budget.
func budget(threshold int64) sim.Duration {
	return sim.Duration(threshold) * SpinPollCost
}

// OrderPolicy is the ordering half of the stickiness scheme.
type OrderPolicy int

const (
	// OrderFIFO empties the task queue quickly: SQEs are fetched only
	// when the queue is empty or nothing has progressed for a while,
	// and tasks append at the tail.
	OrderFIFO OrderPolicy = iota
	// OrderPriority checks the SQ every pass and keeps the task queue
	// sorted by user priority (higher first, stable).
	OrderPriority
)

func (o OrderPolicy) String() string {
	if o == OrderPriority {
		return "priority"
	}
	return "fifo"
}

// Config assembles a DFCCL deployment's tunables. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	CQVariant CQVariant
	Spin      SpinPolicy
	Order     OrderPolicy
	// QuitPeriod is how long the daemon tolerates no progress and no
	// new SQEs before voluntarily quitting (Sec. 4.4).
	QuitPeriod sim.Duration
	// FetchBackoff is the FIFO-mode delay before fetching more SQEs
	// while current tasks are stuck.
	FetchBackoff sim.Duration
	// TaskQueueCap bounds the per-block task queue.
	TaskQueueCap int
	// SQSlots / CQSlots size the queues.
	SQSlots, CQSlots int
	// MaxCollectives sizes the collective context buffer.
	MaxCollectives int
	// AlwaysSaveContext disables the lazy-saving optimization (Sec. 5):
	// every preemption saves the dynamic context even when the
	// collective made no progress since its last save. Ablation knob.
	AlwaysSaveContext bool
	// Tracer, when non-nil, records the daemon scheduling events
	// (fetch, execute, preempt, complete, quit, start) into its Events
	// stream; trace.Recorder also exports the Chrome-trace JSON.
	Tracer *trace.Recorder
	// Recorder, when non-nil, is the full-depth flight recorder: it is
	// threaded into every executor (per-action spans, per-send byte
	// records), the fabric (flow and saturation events), and the
	// membership/tuning paths (kill/abort/reform/revive/tune-pick
	// marks). nil — the default — keeps all those paths recording-free:
	// one nil check per primitive, zero allocations (benchmark-pinned in
	// the root package). Typically the same *trace.Recorder is also
	// installed as Tracer so the coarse daemon events share the
	// timeline.
	Recorder *trace.Recorder
	// BatchedSQERead enables the I/O optimization the paper leaves as
	// future work ("we will prioritize optimizing DFCCL's I/O handling
	// scheme"): the daemon reads all available SQEs in one host-memory
	// transaction, paying the full PCIe read cost once per batch and a
	// small per-entry parse cost for the rest.
	BatchedSQERead bool
	// Tuning is the algorithm auto-tuning table specs opened with
	// prim.AlgoAuto resolve against at Open time (keyed by kind,
	// payload size, and the node shape the rank set spans). nil selects
	// tune.Default(), the committed artifact regenerated by the sweep
	// driver (bench.TuneSweep / `trainbench -fig tune`).
	Tuning *tune.Table
	// Network prices every transfer of the deployment. nil selects
	// fabric.Unshared over the system's cluster — the legacy
	// independent Path.TransferTime pricing, bit-identical to pre-fabric
	// behavior. Pass fabric.Shared to make concurrent transfers contend
	// for link capacity (and surface per-link counters through
	// CollectiveStats.Fabric). The network's cluster must be the one
	// given to NewSystem.
	Network *fabric.Network
}

// DefaultConfig returns the configuration used throughout the paper's
// evaluation: optimized CQ, adaptive stickiness, FIFO ordering.
func DefaultConfig() Config {
	return Config{
		CQVariant:      CQOptimized,
		Spin:           DefaultSpinPolicy(),
		Order:          OrderFIFO,
		QuitPeriod:     200 * sim.Microsecond,
		FetchBackoff:   20 * sim.Microsecond,
		TaskQueueCap:   DefaultTaskQueueCap,
		SQSlots:        4096,
		CQSlots:        4096,
		MaxCollectives: 1000,
	}
}
