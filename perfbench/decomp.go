package main

import (
	"sort"

	"dfccl/internal/sim"
	"dfccl/internal/trace"
)

// split is one launch's virtual latency cut into parts from the
// recorder's daemon events and action spans, all in ns:
//
//	queue       launch to the first execute of the run on its GPU
//	preempted   from each preemption to the next execute
//	exec        the run's primitive action spans, summed
//	deliver     the daemon's completion to host delivery (0 when the
//	            delivery overlapped the daemon's CQE write)
//	residual    what no part explains (context loads, spins that did
//	            not complete an action, scheduler passes): total minus
//	            the four parts above
type split struct {
	total, queue, preempted, exec, deliver, residual int64
	ok                                               bool // all events found
}

type gpuColl struct{ gpu, coll int }

// decomposer indexes a recorder's daemon events and action spans by
// (GPU, collective).
type decomposer struct {
	events  map[gpuColl][]trace.Event
	actions map[gpuColl][]trace.ActionSpan
}

func newDecomposer(rec *trace.Recorder) *decomposer {
	d := &decomposer{events: make(map[gpuColl][]trace.Event), actions: make(map[gpuColl][]trace.ActionSpan)}
	for _, e := range rec.Events {
		if e.Coll >= 0 {
			k := gpuColl{e.GPU, e.Coll}
			d.events[k] = append(d.events[k], e)
		}
	}
	for _, a := range rec.Actions {
		k := gpuColl{a.GPU, a.Coll}
		d.actions[k] = append(d.actions[k], a)
	}
	for _, es := range d.events {
		sort.SliceStable(es, func(i, j int) bool { return es[i].At < es[j].At })
	}
	for _, as := range d.actions {
		sort.SliceStable(as, func(i, j int) bool { return as[i].Start < as[j].Start })
	}
	return d
}

// split decomposes the run of coll on gpu launched at `at` and delivered
// at `done`. Runs of one collective on one GPU never overlap in these
// workloads, so the run owns its (GPU, collective)'s events from `at`
// through the first completion. The daemon stamps `complete` after
// paying the CQE write, which the host poller can overlap, so the
// completion may fall after `done`; the run's daemon activity then
// ends at `done` and delivery costs nothing.
func (d *decomposer) split(gpu, coll int, at, done sim.Time) split {
	s := split{total: int64(done - at)}
	k := gpuColl{gpu, coll}
	es := d.events[k]
	i := sort.Search(len(es), func(i int) bool { return es[i].At >= at })
	var firstExec, preemptAt, completeAt sim.Time = -1, -1, -1
	for ; i < len(es) && (es[i].At <= done || es[i].Kind == trace.EvComplete); i++ {
		e := es[i]
		switch e.Kind {
		case trace.EvExecute:
			if firstExec < 0 {
				firstExec = e.At
			}
			if preemptAt >= 0 {
				s.preempted += int64(e.At - preemptAt)
				preemptAt = -1
			}
		case trace.EvPreempt:
			preemptAt = e.At
		case trace.EvComplete:
			completeAt = e.At
		}
		if completeAt >= 0 {
			break
		}
	}
	if firstExec < 0 || completeAt < 0 {
		return s
	}
	completeAt = min(completeAt, done)
	s.queue = int64(firstExec - at)
	s.deliver = int64(done - completeAt)
	as := d.actions[k]
	for j := sort.Search(len(as), func(j int) bool { return as[j].Start >= at }); j < len(as) && as[j].End <= completeAt; j++ {
		s.exec += int64(as[j].End - as[j].Start)
	}
	s.residual = s.total - s.queue - s.preempted - s.exec - s.deliver
	s.ok = true
	return s
}
