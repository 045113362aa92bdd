package cluster

import (
	"errors"
	"fmt"
	"slices"

	"dfccl/internal/core"
	"dfccl/internal/fabric"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/trace"
)

// driver is the tenant driver's control-plane state.
type driver struct {
	cfg Config
	*plane
	rep *Report

	machineOf []int
	pending   []*jobRun
	load      []int
	active    int // admitted jobs currently holding slots
	arrivals  int // jobs not yet released by the injector
	finished  int // jobs done or failed
	revives   int // revive events not yet fired or still draining
	wake      *sim.Cond
}

// view assembles the policy's control-plane snapshot.
func (d *driver) view() View {
	lost := make([]bool, len(d.load))
	for r := range lost {
		lost[r] = d.sys.RankLost(r)
	}
	return View{
		Load:      d.load,
		Slots:     d.cfg.SlotsPerGPU,
		Lost:      lost,
		MachineOf: d.machineOf,
		NICLoad:   d.sys.Network().NICLoad(),
		Now:       d.e.Now(),
	}
}

// pendingView projects the queue for the policy.
func (d *driver) pendingView() []Pending {
	out := make([]Pending, len(d.pending))
	for i, js := range d.pending {
		out[i] = Pending{Spec: js.spec, Arrived: js.res.Arrival, Requeued: js.res.Attempts > 0}
	}
	return out
}

// tryAdmit re-runs the policy until it refuses, placing each admitted
// job and spawning its data plane.
func (d *driver) tryAdmit(p *sim.Process) {
	for len(d.pending) > 0 {
		idx, ranks, ok := d.cfg.Policy.Admit(d.pendingView(), d.view())
		if !ok {
			d.rep.Rejections++
			return
		}
		if err := d.checkAdmission(idx, ranks); err != nil {
			d.fail(fmt.Errorf("cluster: policy %s returned invalid admission (idx %d, ranks %v): %v",
				d.cfg.Policy.Name(), idx, ranks, err))
			return
		}
		js := d.pending[idx]
		d.pending = append(d.pending[:idx], d.pending[idx+1:]...)
		d.place(p, js, ranks)
	}
}

// checkAdmission holds a policy's answer to the contract before the
// driver acts on it: idx names a pending job, and ranks is a placement
// of that job's size over distinct, live ranks with a free slot each.
func (d *driver) checkAdmission(idx int, ranks []int) error {
	if idx < 0 || idx >= len(d.pending) {
		return fmt.Errorf("index out of range [0, %d)", len(d.pending))
	}
	if size := d.pending[idx].spec.Size; len(ranks) != size {
		return fmt.Errorf("%d ranks for job of size %d", len(ranks), size)
	}
	for i, r := range ranks {
		switch {
		case r < 0 || r >= len(d.load):
			return fmt.Errorf("rank %d out of range [0, %d)", r, len(d.load))
		case slices.Contains(ranks[:i], r):
			return fmt.Errorf("rank %d placed twice", r)
		case d.sys.RankLost(r):
			return fmt.Errorf("rank %d is lost", r)
		case d.load[r] >= d.cfg.SlotsPerGPU:
			return fmt.Errorf("rank %d has no free slot", r)
		}
	}
	return nil
}

// place starts one admitted job on its placement: slots are taken, the
// job's attempt spawns its members, and a monitor process waits for
// the attempt to finish, releasing the slots and either completing or
// requeueing the job.
func (d *driver) place(p *sim.Process, js *jobRun, ranks []int) {
	d.rep.Admissions++
	js.res.Attempts++
	if js.res.Attempts == 1 {
		js.res.Admitted = d.e.Now()
		js.res.Wait = js.res.Admitted.Sub(js.res.Arrival)
	}
	for _, r := range ranks {
		d.load[r]++
	}
	d.active++
	js.start(d.plane, append([]int(nil), ranks...))
	d.e.Spawn(fmt.Sprintf("cluster.job%d.monitor", js.spec.ID), func(p *sim.Process) {
		js.await(p)
		for _, r := range js.members {
			d.load[r]--
		}
		d.active--
		switch {
		case js.res.Committed >= js.spec.Iterations:
			js.res.Done = d.e.Now()
			js.res.Latency = js.res.Done.Sub(js.res.Arrival)
			d.finished++
		case js.aborted && d.err == nil:
			d.rep.Requeues++
			// The attempt cap turns a requeue livelock into a failure.
			if js.res.Attempts >= 3+len(d.cfg.Faults) {
				js.res.Failed = true
				d.finished++
				d.fail(fmt.Errorf("cluster: job %d exceeded %d attempts", js.spec.ID, js.res.Attempts))
			} else {
				d.pending = append(d.pending, js)
			}
		default:
			js.res.Failed = true
			d.finished++
			d.fail(fmt.Errorf("cluster: job %d stopped at iteration %d without abort", js.spec.ID, js.res.Committed))
		}
		d.wake.Broadcast(p.Engine())
	})
}

// revive is the tenant revive policy: a lost rank is revived as soon
// as its abort drain completes, which makes it placeable again, and
// the admission controller re-runs.
func (d *driver) revive(p *sim.Process, rank int) {
	if !d.sys.RankLost(rank) {
		d.rep.RevivesSkipped++
		d.revives--
		d.wake.Broadcast(p.Engine())
		return
	}
	p.Spawn(fmt.Sprintf("cluster.revive%d", rank), func(p *sim.Process) {
		if err := d.reviveRank(p, rank); err != nil {
			d.fail(err)
		} else {
			d.rep.RevivesApplied++
		}
		d.revives--
		d.wake.Broadcast(p.Engine())
	})
}

// tenantPlane builds the tenant data plane. Transfers are priced on a
// shared congestion-aware fabric at the given oversubscription, or
// with the legacy independent pricing when oversub is 0. Daemons are
// priority-aware, so a high-priority tenant's launches overtake queued
// low-priority work even on shared GPUs.
func tenantPlane(cl *topo.Cluster, oversub float64, rec *trace.Recorder) *plane {
	ccfg := core.DefaultConfig()
	ccfg.Order = core.OrderPriority
	if oversub > 0 {
		ccfg.Network = fabric.Shared(cl, fabric.OversubConfig(oversub))
	} else {
		ccfg.Network = fabric.Unshared(cl)
	}
	if rec != nil {
		ccfg.Recorder = rec
		ccfg.Tracer = rec
	}
	return newPlane("cluster", tenantShape, cl, ccfg, false)
}

// Run executes the cluster scenario and returns its report. The
// returned error is non-nil exactly when the report is not Ok.
func Run(cfg Config) (*Report, error) {
	if cfg.SlotsPerGPU <= 0 {
		cfg.SlotsPerGPU = 2
	}
	if cfg.Policy == nil {
		cfg.Policy = FIFO{}
	}
	rep := &Report{Policy: cfg.Policy.Name(), Jobs: make([]JobResult, len(cfg.Jobs))}
	if err := cfg.validate(); err != nil {
		rep.Err = err.Error()
		return rep, err
	}

	d := &driver{
		cfg:      cfg,
		plane:    tenantPlane(cfg.Cluster, cfg.Oversub, cfg.Recorder),
		rep:      rep,
		load:     make([]int, cfg.Cluster.Size()),
		arrivals: len(cfg.Jobs),
		wake:     sim.NewCond("cluster.wake"),
	}
	d.machineOf = make([]int, cfg.Cluster.Size())
	for r, g := range cfg.Cluster.GPUs {
		d.machineOf[r] = g.Machine
	}
	states := make([]*jobRun, len(cfg.Jobs))
	for i := range cfg.Jobs {
		rep.Jobs[i] = JobResult{Spec: cfg.Jobs[i]}
		states[i] = newJobRun(d.plane, cfg.Jobs[i], &rep.Jobs[i])
	}
	for _, ev := range cfg.Faults {
		if ev.Kind == Revive {
			d.revives++
		}
	}

	// Control plane, part 1: the arrival injector releases jobs into
	// the pending queue at their trace times.
	order := byArrival(cfg.Jobs)
	d.e.Spawn("cluster.arrivals", func(p *sim.Process) {
		for _, i := range order {
			js := states[i]
			if dl := js.spec.Arrival - p.Now().Sub(sim.Time(0)); dl > 0 {
				p.Sleep(dl)
			}
			js.res.Arrival = p.Now()
			d.pending = append(d.pending, js)
			d.arrivals--
			d.wake.Broadcast(p.Engine())
		}
	})

	if len(cfg.Faults) > 0 {
		d.inject(cfg.Faults, &rep.FaultCounts, d.revive)
	}

	// Control plane, part 2: the admission controller re-runs the
	// policy on every arrival, completion, requeue, or revive.
	d.e.Spawn("cluster.admission", func(p *sim.Process) {
		for {
			if d.err == nil {
				d.tryAdmit(p)
			}
			if d.active == 0 && len(d.pending) > 0 && d.arrivals == 0 && d.revives == 0 {
				// Nothing running, arriving, or reviving, nothing
				// placeable: the remaining queue can never be served
				// (e.g. kills shrank the cluster below the head job's
				// size).
				for _, js := range d.pending {
					js.res.Failed = true
					d.finished++
				}
				d.pending = nil
				d.fail(errors.New("cluster: pending jobs can never be placed"))
			}
			if d.active == 0 && (d.finished >= len(cfg.Jobs) || (d.err != nil && d.arrivals == 0)) {
				break
			}
			d.wake.Wait(p)
		}
		all := make([]int, cfg.Cluster.Size())
		for r := range all {
			all[r] = r
		}
		d.destroy(p, all)
	})

	d.run(&rep.Outcome)
	rep.PoolCreated = d.sys.CommsCreated()
	rep.PoolReused = d.sys.CommsReused()
	rep.JobBytes = d.sys.Network().JobBytes()
	for i := range rep.Jobs {
		rep.Jobs[i].verify(d.shape)
	}
	if !rep.Ok() {
		if rep.Err == "" {
			rep.Err = "cluster: jobs incomplete or diverged"
		}
		return rep, errors.New(rep.Err)
	}
	return rep, nil
}

// SoloHashes runs one job alone — same cluster shape, same pricing
// model, same placement — and returns its per-iteration fingerprints:
// the in-simulation solo reference the multi-tenant gates compare
// against (the out-of-sim refHash is the pure counterpart). It is only
// meaningful for jobs whose committed trajectory kept one membership.
func SoloHashes(cl *topo.Cluster, spec JobSpec, ranks []int, oversub float64) ([]uint64, error) {
	if _, err := newJobWorkload(spec, tenantShape); err != nil {
		return nil, err
	}
	pl := tenantPlane(cl, oversub, nil)
	j := newJobRun(pl, spec, &JobResult{Spec: spec})
	pl.e.Spawn(fmt.Sprintf("solo.job%d", spec.ID), func(p *sim.Process) {
		j.start(pl, ranks)
		j.await(p)
		pl.destroy(p, ranks)
	})
	var o Outcome
	pl.run(&o)
	switch {
	case o.Err != "":
		return j.res.Hashes, fmt.Errorf("cluster: solo run: %s", o.Err)
	case j.aborted:
		return j.res.Hashes, fmt.Errorf("cluster: solo run of job %d aborted", spec.ID)
	}
	return j.res.Hashes, nil
}
