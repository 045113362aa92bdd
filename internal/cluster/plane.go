package cluster

import (
	"errors"
	"fmt"
	"sort"

	"dfccl/internal/core"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// maxVirtual bounds every run's virtual time, so a hang becomes a
// reported failure rather than a stuck process.
const maxVirtual = 600 * sim.Second

// plane is the data plane both drivers share: one engine, one system,
// and the run's first fatal error. All access happens from simulated
// processes, which the engine serializes.
type plane struct {
	e   *sim.Engine
	sys *core.System
	// name prefixes the processes and conditions the plane creates.
	// The worker format and the cond names are built from it once, so
	// attempts allocate no names.
	name, worker, barrier, join string
	// shape sizes every job the driver runs.
	shape *shape
	// drain makes each member wait for its rank context to go idle
	// before closing its handles. Only a single-tenant run can afford
	// it: on a shared GPU it would couple one job's teardown to every
	// other tenant's work.
	drain bool
	err   error
}

func newPlane(name string, sh *shape, cl *topo.Cluster, ccfg core.Config, drain bool) *plane {
	e := sim.NewEngine()
	e.MaxTime = sim.Time(maxVirtual)
	return &plane{
		e: e, sys: core.NewSystem(e, cl, ccfg), shape: sh, drain: drain,
		name: name, worker: name + ".job%d.w%d", barrier: name + ".barrier", join: name + ".join",
	}
}

// fail records the run's first fatal error.
func (pl *plane) fail(err error) {
	if pl.err == nil {
		pl.err = err
	}
}

// run drives the engine until every process exits and records how the
// run ended in o. An error the driver already reported is kept.
func (pl *plane) run(o *Outcome) {
	if err := pl.e.Run(); err != nil {
		o.Hang = true
		if o.Err == "" {
			o.Err = fmt.Sprintf("cluster: %v (blocked: %v)", err, pl.e.BlockedProcesses())
		}
	}
	o.Elapsed = pl.e.Now().Sub(sim.Time(0))
	if pl.err != nil && o.Err == "" {
		o.Err = pl.err.Error()
	}
}

// destroy tears down the context of every rank in ranks that is not
// lost, so the pollers exit and the engine drains — the no-leak
// guarantee.
func (pl *plane) destroy(p *sim.Process, ranks []int) {
	for _, r := range ranks {
		if !pl.sys.RankLost(r) {
			pl.sys.Init(p, r).Destroy(p)
		}
	}
}

// inject spawns the fault injector: it fires events at their virtual
// times, independent of attempt structure, so kills land
// mid-collective and race with admissions. Events fire in time order,
// ties in script order. Kills are applied here; every revive event is
// handed to the driver's revive policy.
func (pl *plane) inject(events []Event, fc *FaultCounts, revive func(p *sim.Process, rank int)) {
	events = append([]Event(nil), events...)
	sort.SliceStable(events, func(a, b int) bool { return events[a].At < events[b].At })
	pl.e.Spawn(pl.name+".faults", func(p *sim.Process) {
		for _, ev := range events {
			if d := ev.At - p.Now().Sub(sim.Time(0)); d > 0 {
				p.Sleep(d)
			}
			if ev.Kind == Revive {
				revive(p, ev.Rank)
				continue
			}
			if pl.sys.RankLost(ev.Rank) {
				fc.KillsSkipped++
				continue
			}
			pl.sys.KillRank(ev.Rank)
			if pl.sys.RankLost(ev.Rank) {
				fc.KillsApplied++
			} else {
				fc.KillsSkipped++ // never-initialized rank: no-op
			}
		}
	})
}

// reviveRank returns a lost rank to service, retrying while the rank's
// abort drain is still in flight (core refuses a revive until it
// completes).
func (pl *plane) reviveRank(p *sim.Process, rank int) error {
	deadline := p.Now().Add(5 * sim.Second)
	for pl.sys.ReviveRank(rank) != nil {
		if p.Now().Sub(deadline) >= 0 {
			return fmt.Errorf("cluster: revive of rank %d never drained", rank)
		}
		p.Sleep(5 * sim.Microsecond)
	}
	return nil
}

// jobRun is one job's data-plane record: its spec, its result, and
// the state of its current attempt.
type jobRun struct {
	spec JobSpec
	res  *JobResult
	join *sim.Cond

	members     []int
	barA, barB  *sim.Barrier
	running     int
	aborted     bool // the attempt hit an error
	interrupted bool // a revive asked the elastic driver to re-form
	typedErrors int  // futures and opens resolved with ErrRankLost
}

func newJobRun(pl *plane, spec JobSpec, res *JobResult) *jobRun {
	return &jobRun{spec: spec, res: res, join: sim.NewCond(pl.join)}
}

// start begins one attempt over members: it resets the attempt state
// and spawns one member process per position, in position order.
func (j *jobRun) start(pl *plane, members []int) {
	j.members = members
	j.res.Ranks = members
	j.aborted, j.interrupted = false, false
	j.barA = sim.NewBarrier(pl.barrier, len(members))
	j.barB = sim.NewBarrier(pl.barrier, len(members))
	j.running = len(members)
	for pos, rank := range members {
		pl.e.Spawn(fmt.Sprintf(pl.worker, j.spec.ID, rank), func(p *sim.Process) {
			j.member(p, pl, pos, rank)
			j.running--
			j.join.Broadcast(p.Engine())
		})
	}
}

// await blocks until every member of the current attempt has exited.
func (j *jobRun) await(p *sim.Process) {
	for j.running > 0 {
		j.join.Wait(p)
	}
}

// member is one rank's attempt loop. It opens the job's collectives
// over the attempt's members; then, per iteration from the job's
// cursor, it sleeps the compute phase, runs and verifies the
// iteration, and commits it through two barriers: after barrier A the
// lead records the fingerprint and advances the cursor, and barrier B
// holds everyone until it has. A typed core.ErrRankLost aborts the
// attempt; any other error also fails the run. Either way both
// barriers are poisoned so no member waits on a rank that will never
// arrive.
func (j *jobRun) member(p *sim.Process, pl *plane, pos, rank int) {
	e := p.Engine()
	w, _ := newJobWorkload(j.spec, pl.shape)
	rc := pl.sys.Init(p, rank)
	abort := func(err error) {
		if errors.Is(err, core.ErrRankLost) {
			j.typedErrors++
		} else {
			pl.fail(err)
		}
		j.aborted = true
		j.barA.Poison(e)
		j.barB.Poison(e)
	}
	compute := j.spec.Compute
	if compute <= 0 {
		compute = 40 * sim.Microsecond
	}
	if err := w.setup(p, rc, j.members); err != nil {
		abort(err)
	} else {
		for !j.aborted && !j.interrupted && pl.err == nil && j.res.Committed < j.spec.Iterations {
			it := j.res.Committed
			p.Sleep(compute)
			hash, err := w.iter(p, rc, j.members, pos, it)
			if err != nil {
				abort(err)
				break
			}
			if !j.barA.Wait(p) {
				break
			}
			if pos == 0 {
				j.res.Trajectory = append(j.res.Trajectory, append([]int(nil), j.members...))
				j.res.Hashes = append(j.res.Hashes, hash)
				j.res.Committed++
			}
			if !j.barB.Wait(p) {
				break
			}
		}
	}
	// A dead rank's registrations are auto-released by its exiting
	// poller; live ranks close their handles so the pool can re-form
	// the group. The job's own futures were all waited inside iter, so
	// Close never sees outstanding runs.
	if !pl.sys.RankLost(rank) {
		if pl.drain {
			rc.WaitAll(p)
		}
		w.teardown(p)
	}
}

// verify recomputes, outside the simulation, the reference
// fingerprint of every committed iteration over the membership that
// committed it, and sets RefHashes and BitIdentical.
func (r *JobResult) verify(sh *shape) {
	w, err := newJobWorkload(r.Spec, sh)
	if err != nil {
		return
	}
	r.BitIdentical = r.Committed == r.Spec.Iterations && len(r.Hashes) == r.Committed
	for it, members := range r.Trajectory {
		ref := w.refHash(members, it)
		r.RefHashes = append(r.RefHashes, ref)
		if it >= len(r.Hashes) || r.Hashes[it] != ref {
			r.BitIdentical = false
		}
	}
}
