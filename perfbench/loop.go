package main

import (
	"fmt"
	"runtime"
	"time"

	"dfccl"
	"dfccl/internal/core"
	"dfccl/internal/metrics"
	"dfccl/internal/sim"
	"dfccl/internal/trace"
)

// gate is a reusable barrier for the rank processes of a closed-loop
// workload. The last process to arrive runs the hook before releasing
// the others, so step boundaries cost no virtual time and the hook sees
// every rank parked.
type gate struct {
	n, arrived, gen int
	cond            *sim.Cond
}

func newGate(n int) *gate { return &gate{n: n, cond: sim.NewCond("perfbench.gate")} }

func (g *gate) wait(p *sim.Process, hook func()) {
	gen := g.gen
	g.arrived++
	if g.arrived == g.n {
		g.arrived = 0
		g.gen++
		if hook != nil {
			hook()
		}
		g.cond.Broadcast(p.Engine())
		return
	}
	for gen == g.gen {
		g.cond.Wait(p)
	}
}

// hostSample is the host cost of one timed step.
type hostSample struct {
	wall       float64 // seconds
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
}

// hostClock times the timed segments of a run. Reading MemStats stops
// the world, so it sits outside the wall-clock interval.
type hostClock struct {
	t0      time.Time
	ms      runtime.MemStats
	samples []hostSample
}

func (h *hostClock) start() {
	runtime.ReadMemStats(&h.ms)
	h.t0 = time.Now()
}

func (h *hostClock) stop() {
	wall := time.Since(h.t0).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.samples = append(h.samples, hostSample{
		wall:       wall,
		allocBytes: ms.TotalAlloc - h.ms.TotalAlloc,
		mallocs:    ms.Mallocs - h.ms.Mallocs,
		gcCycles:   ms.NumGC - h.ms.NumGC,
	})
}

// launch is one collective run as the benchmark observed it: the
// virtual instant of Launch and of completion delivery on the host
// (when a Future.Wait blocked on it returns).
type launch struct {
	step, rank, coll int
	dense            bool // moe-step's dense all-reduce phase
	at, done         sim.Time
	err              error
}

// callTimes collects benchmark-timed host durations of public calls,
// in microseconds. A call that blocks in virtual time also pays for
// the engine work interleaved meanwhile.
type callTimes struct{ open, close, launch []float64 }

func timeCall(dst *[]float64, f func()) {
	t := time.Now()
	f()
	*dst = append(*dst, float64(time.Since(t).Nanoseconds())/1e3)
}

// stepRun is what a closed-loop workload contributes to runLoop.
type stepRun interface {
	// ranks is the number of rank processes.
	ranks() int
	// open registers the rank's persistent collectives and fills its
	// buffers.
	open(p *sim.Process, rc *core.RankContext, calls *callTimes) error
	// prepare generates step s's inputs (untimed; runs once, with every
	// rank parked).
	prepare(s int)
	// step launches and waits step s on one rank.
	step(p *sim.Process, rc *core.RankContext, s int, lc *launchLog, calls *callTimes) error
	// verify checks one rank's outputs of step s against the closed-form
	// reference (untimed), reporting each collective whose output holds
	// a wrong element.
	verify(rank, s int, wrong func(coll int))
	// close releases the rank's persistent collectives.
	close(p *sim.Process, rank int, calls *callTimes) error
}

// launchLog records launches on the host side of the library.
type launchLog struct {
	lib  *dfccl.Library
	step int
	all  []launch
}

// launchCB launches c and records its launch and delivery instants.
// dense marks launches of moe-step's dense all-reduce phase.
func (l *launchLog) launchCB(p *sim.Process, c *dfccl.Collective, send, recv *dfccl.Buffer, dense bool, calls *callTimes) error {
	i := len(l.all)
	l.all = append(l.all, launch{step: l.step, rank: c.Rank(), coll: c.ID(), dense: dense, at: p.Now(), done: -1})
	var err error
	timeCall(&calls.launch, func() {
		err = c.LaunchCB(p, send, recv, func(e error) {
			l.all[i].done = sim.Time(l.lib.Now())
			l.all[i].err = e
		})
	})
	if err != nil {
		l.all[i].err = err
	}
	return err
}

// loopResult is one closed-loop run.
type loopResult struct {
	setup    float64 // seconds, system build to the first timed step
	host     []hostSample
	stepVirt []sim.Duration // per timed step
	launches []launch       // timed steps only
	calls    callTimes
	// attempted counts every launch, warm-up included; failed counts
	// those that returned an error, were never delivered, or left a
	// wrong element.
	attempted, failed int
	// before/after are Metrics() snapshots at the edges of the timed
	// phase; window is its virtual interval.
	before, after *metrics.Registry
	window        [2]sim.Time
	runErr        error
}

// loopOpts controls one closed-loop run.
type loopOpts struct {
	// setupOnly stops after the warm-up step.
	setupOnly bool
	// minSteps timed steps always run; more run until seconds elapse
	// (maxSteps caps them). Virtual metrics use the first minSteps.
	minSteps, maxSteps int
	seconds            float64
	rec                *trace.Recorder
	// onTimed and onTimedEnd run at the edges of the first minSteps
	// timed steps (to bracket a CPU profile).
	onTimed, onTimedEnd func()
}

// runLoop builds a library with newLib, opens every rank, runs one
// untimed warm-up step, then the timed steps. Each step is bracketed by
// gates: inputs are generated before the opening gate, outputs are
// verified after the closing gate, and only the span between the two is
// timed on the host.
func runLoop(w stepRun, newLib func(rec *trace.Recorder) *dfccl.Library, o loopOpts) *loopResult {
	t0 := time.Now()
	lib := newLib(o.rec)
	lib.SetTimeLimit(600 * dfccl.Second)
	res := &loopResult{}
	lg := &launchLog{lib: lib}
	n := w.ranks()
	g := newGate(n)
	hc := &hostClock{}
	var stop bool
	var timedStart time.Time
	var stepStart sim.Time
	var firstErr error
	wrong := make(map[[3]int]bool) // (step, rank, coll) with a wrong element
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}

	opening := func(s int) func() {
		return func() {
			if s == 0 {
				res.setup = time.Since(t0).Seconds()
				if o.setupOnly {
					stop = true
					return
				}
				timedStart = time.Now()
				res.before = lib.Metrics()
				res.window[0] = sim.Time(lib.Now())
				if o.onTimed != nil {
					o.onTimed()
				}
			}
			if s >= o.minSteps && (s >= o.maxSteps || time.Since(timedStart).Seconds() >= o.seconds) {
				stop = true
				return
			}
			w.prepare(s)
			lg.step = s
			stepStart = sim.Time(lib.Now())
			if s >= 0 {
				hc.start()
			}
		}
	}
	closing := func(s int) func() {
		return func() {
			if s < 0 {
				return
			}
			hc.stop()
			res.stepVirt = append(res.stepVirt, sim.Time(lib.Now()).Sub(stepStart))
			if s == o.minSteps-1 {
				if o.onTimedEnd != nil {
					o.onTimedEnd()
				}
				res.after = lib.Metrics()
				res.window[1] = sim.Time(lib.Now())
			}
		}
	}

	for rank := 0; rank < n; rank++ {
		rank := rank
		lib.Go(fmt.Sprintf("rank%d", rank), func(p *dfccl.Process) {
			rc := lib.Init(p, rank)
			if err := w.open(p, rc, &res.calls); err != nil {
				fail(fmt.Errorf("rank %d open: %w", rank, err))
			}
			for s := -1; ; s++ {
				g.wait(p, opening(s))
				if stop {
					break
				}
				if firstErr == nil {
					if err := w.step(p, rc, s, lg, &res.calls); err != nil {
						fail(fmt.Errorf("rank %d step %d: %w", rank, s, err))
					}
				}
				rc.WaitAll(p)
				g.wait(p, closing(s))
				w.verify(rank, s, func(coll int) { wrong[[3]int{s, rank, coll}] = true })
			}
			if err := w.close(p, rank, &res.calls); err != nil {
				fail(fmt.Errorf("rank %d close: %w", rank, err))
			}
			rc.Destroy(p)
		})
	}
	if err := lib.Run(); err != nil {
		fail(fmt.Errorf("engine: %w", err))
	}
	res.runErr = firstErr
	res.host = hc.samples
	for _, l := range lg.all {
		res.attempted++
		if l.err != nil || l.done < l.at || wrong[[3]int{l.step, l.rank, l.coll}] {
			res.failed++
		}
		if l.step >= 0 {
			res.launches = append(res.launches, l)
		}
	}
	if res.attempted == 0 || firstErr != nil && res.failed == 0 {
		// A run that failed before its launches completed still counts
		// as one failed operation.
		res.attempted++
		res.failed++
	}
	return res
}
