package core

import (
	"sort"

	"dfccl/internal/cudasim"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/trace"
)

// daemonBody is the daemon kernel (Sec. 4): DFCCL's core component. It
// fetches SQEs into the task queue, schedules collectives under the
// stickiness-adjustment policy, executes their primitives in a
// two-phase blocking manner with bounded spins, preempts stuck
// collectives via context switch, writes CQEs for completed ones, and
// voluntarily quits when idle or globally stuck so GPU synchronization
// can complete.
func (r *RankContext) daemonBody(kc *cudasim.KernelCtx) {
	p := kc.Process
	cfg := &r.sys.Config
	p.Sleep(DaemonStartup)
	r.trace(p, -1, trace.EvStart)

	// Rebuild the task queue from contexts in global memory: work that
	// survived a voluntary quit (shared memory is lost across quits;
	// global-memory contexts are not — Sec. 4.5).
	queue := r.rebuildQueue()
	for _, t := range queue {
		r.loadContext(p, t)
	}

	lastActivity := p.Now()
	for {
		r.Stats.SchedulerPass++

		// Fetch SQEs per the ordering policy.
		fetched := r.fetchSQEs(p, &queue, lastActivity)
		if fetched < 0 {
			return // exiting SQE: final exit (dfcclDestroy)
		}
		if fetched > 0 {
			lastActivity = p.Now()
		}
		if cfg.Order == OrderPriority {
			sort.SliceStable(queue, func(i, j int) bool {
				return queue[i].group.Priority > queue[j].group.Priority
			})
		}

		// Set initial spin thresholds by queue position (largest at
		// the front — Algorithm 1, line 3).
		for pos, t := range queue {
			t.spin = cfg.Spin.initialThreshold(pos)
		}

		// Traverse the task queue and execute (Algorithm 1, lines 4-15).
		progressed := false
		for i := 0; i < len(queue); i++ {
			t := queue[i]
			if !t.prepared {
				if len(t.runs) == 0 {
					// Nothing to do (a redundant SQE for an already-
					// drained task): drop it so a later Unregister never
					// leaves a dangling entry in the live queue.
					t.inQueue = false
					queue = append(queue[:i], queue[i+1:]...)
					i--
					continue
				}
				t.exec.Reset(t.runs[0].send, t.runs[0].recv)
				t.prepared = true
				t.dirty = true
			}
			if !t.execStarted {
				t.execStarted = true
				t.ExecStartedAt = p.Now()
			}
			r.loadContext(p, t)
			r.trace(p, t.ID(), trace.EvExecute)
			done, prog := r.executeTask(p, t)
			if prog {
				progressed = true
			}
			if done {
				// Completed runs leave the queue; more pending runs
				// re-enter via their own SQEs already in flight.
				if len(t.runs) == 0 {
					t.inQueue = false
					queue = append(queue[:i], queue[i+1:]...)
					i--
				}
			}
		}
		if progressed {
			lastActivity = p.Now()
			continue
		}

		// Nothing progressed anywhere. Quit voluntarily after the
		// grace period so implicit/explicit GPU synchronization can
		// complete and resources free up (Sec. 4.4); otherwise pause
		// briefly and rescan.
		if p.Now().Sub(lastActivity) >= cfg.QuitPeriod {
			for _, t := range queue {
				r.saveContext(p, t)
			}
			r.Stats.VoluntaryQuits++
			r.trace(p, -1, trace.EvQuit)
			// Wake the poller: it notices CQEs lag SQEs and will
			// restart the daemon when appropriate.
			r.pollerWake.Broadcast(p.Engine())
			return
		}
		p.Sleep(IdlePollTime)
	}
}

// rebuildQueue reconstructs the task queue after a (re)start from the
// persistent per-collective state, ordered by original enqueue order.
func (r *RankContext) rebuildQueue() []*collTask {
	var queue []*collTask
	for _, t := range r.tasks {
		if len(t.runs) > 0 {
			t.inQueue = true
			queue = append(queue, t)
		} else {
			t.inQueue = false
		}
		t.resident = false
	}
	sort.Slice(queue, func(i, j int) bool {
		if queue[i].enqueueSeq != queue[j].enqueueSeq {
			return queue[i].enqueueSeq < queue[j].enqueueSeq
		}
		return queue[i].ID() < queue[j].ID() // never-fetched tasks tie at 0
	})
	return queue
}

// fetchSQEs pops SQEs into the task queue according to the ordering
// policy. It returns the number fetched, or -1 when the exiting SQE was
// read.
func (r *RankContext) fetchSQEs(p *sim.Process, queue *[]*collTask, lastActivity sim.Time) int {
	cfg := &r.sys.Config
	if cfg.Order == OrderFIFO {
		// FIFO: fetch only when the queue is empty or everything has
		// been stuck past the backoff — empty the queue quickly.
		if len(*queue) != 0 && p.Now().Sub(lastActivity) < cfg.FetchBackoff {
			return 0
		}
	}
	fetched := 0
	for len(*queue) < cfg.TaskQueueCap {
		sqe, ok := r.sq.TryPop(p.Engine())
		if !ok {
			break
		}
		if cfg.BatchedSQERead && fetched > 0 {
			p.Sleep(BatchedSQEExtraTime)
		} else {
			p.Sleep(ReadSQETime)
		}
		r.Stats.SQEsRead++
		if sqe.Exit {
			return -1
		}
		t := r.tasks[sqe.CollID]
		p.Sleep(ParseSQETime)
		if t == nil {
			// Stale SQE: after a voluntary quit, a restarted daemon
			// rebuilds its queue from global-memory contexts without
			// consuming pending SQEs, so an entry can surface after its
			// collective already completed and was unregistered.
			continue
		}
		if !t.inQueue {
			t.inQueue = true
			r.enqueueCounter++
			t.enqueueSeq = r.enqueueCounter
			*queue = append(*queue, t)
		}
		t.QueueLenAtLast = len(*queue)
		r.trace(p, t.ID(), trace.EvFetch)
		fetched++
	}
	return fetched
}

// executeTask runs the scheduled collective's primitives until it
// completes or a primitive exhausts its spin threshold, in which case
// the collective is preempted (Algorithm 1, lines 6-15). It reports
// (runCompleted, madeProgress).
func (r *RankContext) executeTask(p *sim.Process, t *collTask) (bool, bool) {
	cfg := &r.sys.Config
	progressed := false
	for {
		res := t.exec.StepOnce(p, budget(t.spin))
		switch res {
		case prim.Progressed:
			progressed = true
			t.dirty = true
			// Primitive success raises succeeding primitives'
			// thresholds (Algorithm 1, line 9): the gang-scheduling
			// negotiation signal.
			t.spin = cfg.Spin.boost(t.spin)
		case prim.Done:
			progressed = true
			t.runs = t.runs[1:]
			t.prepared = false
			t.dirty = false
			t.execStarted = false
			t.LastCompletedAt = p.Now()
			t.Completions++
			r.writeCQE(p, t.ID())
			r.trace(p, t.ID(), trace.EvComplete)
			return true, true
		case prim.Stuck:
			// Preempt: lazily save the dynamic context (only if the
			// collective progressed since its last save) and switch.
			r.Stats.Preemptions++
			t.CtxSwitches++
			r.saveContext(p, t)
			r.trace(p, t.ID(), trace.EvPreempt)
			return false, progressed
		case prim.Aborted:
			// A rank loss killed the group (the executor observed it at
			// a step/wait checkpoint, touching no connector state).
			// Resolve every pending run to a CQE; the poller translates
			// them into the group's typed error. The same drain runs on
			// the lost rank's own daemon, so its futures resolve too.
			n := len(t.runs)
			t.runs = nil
			t.prepared = false
			t.dirty = false
			t.execStarted = false
			for i := 0; i < n; i++ {
				r.writeCQE(p, t.ID())
			}
			r.trace(p, t.ID(), trace.EvComplete)
			return true, true
		}
	}
}

// writeCQE pushes a completion entry, charging the CQ variant's write
// cost, and wakes the CPU poller.
func (r *RankContext) writeCQE(p *sim.Process, collID int) {
	for !r.cq.Push(collID) {
		// CQ full: wait for the poller to drain. Rare with default
		// sizing; bounded wait keeps the daemon preemptible.
		r.pollerWake.Broadcast(p.Engine())
		p.Sleep(PollerInterval)
	}
	p.Sleep(r.cq.WriteCost())
	r.Stats.CQEsWritten++
	r.pollerWake.Broadcast(p.Engine())
}

// loadContext stages a collective's context into an active slot,
// modeling the direct-mapped active-slot cache: loading is free when
// the context is already resident.
func (r *RankContext) loadContext(p *sim.Process, t *collTask) {
	if t.resident {
		return
	}
	// Evict: with ActiveContextSlots slots, keep residency for the
	// most recently used tasks only.
	r.evictOldest(t)
	p.Sleep(LoadContextTime)
	r.Stats.ContextLoads++
	t.resident = true
}

// evictOldest clears residency of other tasks beyond the slot budget.
func (r *RankContext) evictOldest(incoming *collTask) {
	resident := 0
	for _, t := range r.tasks {
		if t.resident && t != incoming {
			resident++
		}
	}
	if resident < ActiveContextSlots {
		return
	}
	// Direct-mapped eviction: slot index = collID % slots; evict the
	// task sharing the incoming task's slot, else the lowest-ID
	// resident task (deterministic).
	slot := incoming.ID() % ActiveContextSlots
	var fallback *collTask
	var conflict *collTask
	for _, t := range r.tasks {
		if !t.resident || t == incoming {
			continue
		}
		if t.ID()%ActiveContextSlots == slot && (conflict == nil || t.ID() < conflict.ID()) {
			conflict = t
		}
		if fallback == nil || t.ID() < fallback.ID() {
			fallback = t
		}
	}
	if conflict != nil {
		conflict.resident = false
		return
	}
	if fallback != nil {
		fallback.resident = false
	}
}

// saveContext persists the dynamic context of a preempted collective,
// lazily: contexts that have not progressed since the last save are
// skipped (Sec. 5).
func (r *RankContext) saveContext(p *sim.Process, t *collTask) {
	if !t.dirty && !r.sys.Config.AlwaysSaveContext {
		return
	}
	p.Sleep(SaveContextTime)
	r.Stats.ContextSaves++
	t.dirty = false
}

// trace forwards a daemon scheduling event to the configured tracer.
func (r *RankContext) trace(p *sim.Process, coll int, kind trace.Kind) {
	if tr := r.sys.Config.Tracer; tr != nil {
		tr.Record(p.Now(), r.Rank, coll, kind)
	}
}
