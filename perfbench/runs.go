package main

import (
	"math"
	"reflect"

	"dfccl"
	"dfccl/internal/cluster"
	"dfccl/internal/metrics"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/trace"
)

// Fixed work per run. Virtual metrics come from exactly these units, so
// they repeat exactly for a seed however long the host takes; host
// metrics take every unit timed within --seconds.
const (
	moeSetups, moeSteps           = 3, 10
	disorderSetups, disorderSteps = 15, 90
	clusterSetups, clusterUnits   = 7, 40
	maxUnits                      = 1 << 20
)

// loopSpec describes a closed-loop workload to runLoopWorkload.
type loopSpec struct {
	newW     func() stepRun
	lib      func(*trace.Recorder) *dfccl.Library
	setups   int
	minSteps int
	// virt computes the virtual end-to-end metrics of a run's first
	// minSteps steps.
	virt func(res *loopResult, r *report) map[string]float64
}

func account(r *report, attempted, failed int, runErr error) {
	r.attempted += attempted
	r.failed += failed
	if runErr != nil {
		r.fail("%v", runErr)
	}
	if failed > 0 {
		r.fail("%d of %d operations failed", failed, attempted)
	}
}

// hostMetrics sets the per-unit host metrics. Wall-clock is the median
// over every timed unit, which sheds interference from other work on
// the machine. Allocation repeats for the same inputs, so it is the
// mean over the fixed units: their total divided by their count, which
// varies less across seeds than a median of units of uneven work.
func hostMetrics(r *report, hs []hostSample, fixed int) {
	fixed = min(fixed, len(hs))
	var alloc, mallocs float64
	for _, h := range hs[:fixed] {
		alloc += float64(h.allocBytes)
		mallocs += float64(h.mallocs)
	}
	r.set("host_s", median(walls(hs)))
	r.set("host_alloc_MB", ratio(alloc, float64(fixed))/1e6)
	r.set("host_allocs_k", ratio(mallocs, float64(fixed))/1e3)
}

func walls(hs []hostSample) []float64 {
	var w []float64
	for _, h := range hs {
		w = append(w, h.wall)
	}
	return w
}

// closedLoopVirt computes the virtual metrics both closed loops share
// from the first n steps: the step span, launch-to-delivery latency of
// every launch, and each rank's per-step sojourn (step start to the
// rank's last delivery).
func closedLoopVirt(res *loopResult, n int, r *report) map[string]float64 {
	var steps, lat []float64
	for _, d := range res.stepVirt[:min(n, len(res.stepVirt))] {
		steps = append(steps, float64(d)/1e6)
	}
	last := make(map[[2]int]sim.Time)
	first := make(map[int]sim.Time)
	for _, l := range res.launches {
		if l.step >= n {
			continue
		}
		lat = append(lat, float64(l.done-l.at)/1e3)
		k := [2]int{l.step, l.rank}
		if l.done > last[k] {
			last[k] = l.done
		}
		if f, ok := first[l.step]; !ok || l.at < f {
			first[l.step] = l.at
		}
	}
	var soj []float64
	for k, t := range last {
		soj = append(soj, float64(t-first[k[0]])/1e6)
	}
	for _, e := range []error{checkTail("coll_lat", len(lat), 99), checkTail("job_sojourn", len(soj), 90)} {
		if e != nil {
			r.fail("%v", e)
		}
	}
	return map[string]float64{
		"step_virt_ms":       median(steps),
		"coll_lat_p50_us":    percentile(lat, 50),
		"coll_lat_p99_us":    percentile(lat, 99),
		"job_sojourn_p50_ms": percentile(soj, 50),
		"job_sojourn_p90_ms": percentile(soj, 90),
	}
}

func moeVirt(res *loopResult, r *report) map[string]float64 {
	v := closedLoopVirt(res, moeSteps, r)
	type span struct{ lo, hi sim.Time }
	phase := make(map[int]*span)
	for _, l := range res.launches {
		if !l.dense || l.step >= moeSteps {
			continue
		}
		sp := phase[l.step]
		if sp == nil {
			sp = &span{l.at, l.done}
			phase[l.step] = sp
		}
		sp.lo, sp.hi = min(sp.lo, l.at), max(sp.hi, l.done)
	}
	var bus float64
	for _, n := range moeDense {
		bus += busBytes(true, 4*n, moeRanks)
	}
	var bw []float64
	for _, sp := range phase {
		bw = append(bw, busBW(bus, int64(sp.hi-sp.lo)))
	}
	v["busbw_GBps"] = median(bw)
	return v
}

func disorderVirt(res *loopResult, r *report) map[string]float64 {
	v := closedLoopVirt(res, disorderSteps, r)
	// Every collective instance (one per group) counted once per step.
	var bus float64
	for role, ro := range disorderRoles {
		for rank := 0; rank < disorderRanks; rank++ {
			group := disorderGroup(role, rank)
			if group[0] != rank {
				continue
			}
			n := len(group)
			if ro.kind == prim.AllReduce {
				bus += busBytes(true, 4*ro.count, n)
			} else {
				bus += busBytes(false, 4*ro.count*n, n)
			}
		}
	}
	var bw []float64
	for _, d := range res.stepVirt[:min(disorderSteps, len(res.stepVirt))] {
		bw = append(bw, busBW(bus, int64(d)))
	}
	v["busbw_GBps"] = median(bw)
	return v
}

func runMoE(seed int64, seconds float64, traced bool) *report {
	spec := loopSpec{
		newW: func() stepRun { return newMoE(seed) }, lib: moeLib,
		setups: moeSetups, minSteps: moeSteps, virt: moeVirt,
	}
	r, base := runLoopWorkload(spec, seconds, traced)
	if base == nil {
		return r
	}
	// Reference: the dense phase on NCCL over the same cluster and fabric.
	lat, err := ncclDense(moeSteps)
	if err != nil {
		r.fail("ncclsim dense phase: %v", err)
		return r
	}
	var dense []float64
	for _, l := range base.launches {
		if l.dense && l.step < moeSteps {
			dense = append(dense, float64(l.done-l.at)/1e3)
		}
	}
	nccl := median(lat)
	r.set("ncclsim.dense_lat_p50_us", nccl)
	r.set("ncclsim.dfccl_over_nccl_p50", ratio(median(dense), nccl))
	return r
}

func runDisorder(seed int64, seconds float64, traced bool) *report {
	spec := loopSpec{
		newW: func() stepRun { return newDisorder(seed) },
		lib:  disorderLib, setups: disorderSetups, minSteps: disorderSteps, virt: disorderVirt,
	}
	r, _ := runLoopWorkload(spec, seconds, traced)
	// The launch orders DFCCL just served must deadlock single-stream
	// NCCL.
	var orders [][][]int
	for s := 0; s < disorderSteps; s++ {
		orders = append(orders, disorderOrders(seed, s))
	}
	deadlocked, err := replayNCCL(orders)
	if err != nil {
		r.fail("nccl replay: %v", err)
	}
	if !deadlocked {
		r.fail("nccl replay of the disordered launches did not deadlock")
	}
	if traced {
		r.set("ncclsim.replay_deadlocked", b2f(deadlocked))
	}
	return r
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// runLoopWorkload runs a closed-loop workload: set-ups, then the timed
// run (--trace 0), or the untraced and traced runs of the same fixed
// work (--trace 1).
func runLoopWorkload(spec loopSpec, seconds float64, traced bool) (*report, *loopResult) {
	r := newReport()
	var setups []float64
	if !traced {
		for i := 0; i < spec.setups-1; i++ {
			res := runLoop(spec.newW(), spec.lib, loopOpts{setupOnly: true, minSteps: 1})
			account(r, res.attempted, res.failed, res.runErr)
			setups = append(setups, res.setup)
		}
	}
	maxSteps := maxUnits
	if traced {
		maxSteps = spec.minSteps
	}
	base := runLoop(spec.newW(), spec.lib, loopOpts{minSteps: spec.minSteps, maxSteps: maxSteps, seconds: seconds})
	account(r, base.attempted, base.failed, base.runErr)
	virt := spec.virt(base, r)
	if !traced {
		setups = append(setups, base.setup)
		r.set("setup_s", median(setups))
		hostMetrics(r, base.host, spec.minSteps)
		for _, m := range endToEnd {
			if v, ok := virt[m[0]]; ok {
				r.set(m[0], v)
			}
		}
		return r, nil
	}

	rec := &trace.Recorder{}
	prof := &profiler{}
	tr := runLoop(spec.newW(), spec.lib, loopOpts{minSteps: spec.minSteps, maxSteps: spec.minSteps, rec: rec,
		onTimed: prof.start, onTimedEnd: prof.stop})
	account(r, tr.attempted, tr.failed, tr.runErr)
	observerCheck(r, virt, spec.virt(tr, newReport()), launchTimes(base), launchTimes(tr))
	r.set("trace.overhead_frac", ratio(median(walls(tr.host)), median(walls(base.host)))-1)
	profileMetrics(r, prof)
	loopLayers(r, base, tr, rec)
	return r, base
}

// launchTimes lists every launch's virtual instants, in launch order.
func launchTimes(res *loopResult) [][2]sim.Time {
	var out [][2]sim.Time
	for _, l := range res.launches {
		out = append(out, [2]sim.Time{l.at, l.done})
	}
	return out
}

// observerCheck requires the traced run's virtual results to equal the
// untraced run's exactly: recording must not move virtual time.
func observerCheck(r *report, a, b map[string]float64, at, bt any) {
	equal := reflect.DeepEqual(a, b) && reflect.DeepEqual(at, bt)
	if !equal {
		r.fail("observer effect: traced virtual metrics %v differ from untraced %v", b, a)
	}
	r.set("trace.virt_equal", b2f(equal))
}

// profileMetrics sets every bucket's share of the traced run's CPU
// samples; the shares sum to 1.
func profileMetrics(r *report, prof *profiler) {
	if prof.err != nil {
		r.fail("cpu profile: %v", prof.err)
	}
	sh, total := shares(prof.stacks)
	sum := 0.0
	for _, b := range bucketNames {
		sum += sh[b]
		switch b {
		case "runtime.sched":
			r.set("runtime.sched_share", sh[b])
		case "runtime.gc":
			r.set("runtime.gc_share", sh[b])
		case "bench":
			r.set("bench.self_share", sh[b])
		default:
			r.set(b+".host_share", sh[b])
		}
	}
	if total == 0 || math.Abs(sum-1) > 1e-9 {
		r.fail("profile shares sum to %v over %d samples", sum, total)
	}
	r.set("bench.profile_samples", float64(total))
	r.set("core.cq_host_share", cqShare(prof.stacks))
}

// delta is a counter's growth between two registry snapshots.
func delta(a, b *metrics.Registry, name string) float64 {
	return float64(b.Counter(name) - a.Counter(name))
}

// loopLayers sets the per-layer metrics of a closed-loop workload from
// the library's counters over the fixed timed steps, the benchmark's
// timings of public calls, and the recorder's per-launch split.
func loopLayers(r *report, base, tr *loopResult, rec *trace.Recorder) {
	a, b := base.before, base.after
	launches := delta(a, b, "core.launches")
	r.set("core.launches", launches)
	r.set("core.completions", delta(a, b, "core.completions"))
	r.set("core.sqes_read", delta(a, b, "core.sqes_read"))
	r.set("core.cqes_written", delta(a, b, "core.cqes_written"))
	for _, c := range [][2]string{
		{"preemptions", "core.preemptions"}, {"ctx_loads", "core.context_loads"},
		{"ctx_saves", "core.context_saves"}, {"quits", "core.voluntary_quits"},
		{"daemon_starts", "core.daemon_starts"},
	} {
		r.set("core."+c[0]+"_per_launch", ratio(delta(a, b, c[1]), launches))
	}
	created, reused := float64(b.Counter("core.comms_created")), float64(b.Counter("core.comms_reused"))
	r.set("core.pool_hit_ratio", ratio(reused, created+reused))
	r.set("core.open_host_us", median(base.calls.open))
	r.set("core.close_host_us", median(base.calls.close))
	r.set("core.launch_host_us", median(base.calls.launch))

	prims, spins := delta(a, b, "prim.prims_executed"), delta(a, b, "prim.spin_aborts")
	r.set("prim.prims_executed", prims)
	r.set("prim.spin_aborts", spins)
	r.set("prim.spin_abort_ratio", ratio(spins, prims+spins))

	wire := 0.0
	for _, t := range []string{"local", "shm", "rdma"} {
		v := delta(a, b, "prim.bytes_"+t)
		wire += v
		r.set("mem.wire_bytes_"+t, v)
	}
	var alloc float64
	for _, h := range base.host[:min(len(base.host), len(base.stepVirt))] {
		alloc += float64(h.allocBytes)
	}
	r.set("mem.alloc_bytes_per_wire_byte", ratio(alloc, wire))
	r.set("runtime.gc_cycles", gcCycles(base.host))

	for _, t := range fabricTiers {
		p := "fabric." + t + "."
		r.set(p+"bytes", delta(a, b, p+"bytes"))
		r.set(p+"sat_ratio", ratio(delta(a, b, p+"saturated_ns"), delta(a, b, p+"busy_ns")))
	}
	flowLayers(r, rec, tr.window)

	d := newDecomposer(rec)
	var q, pre, ex, del, res []float64
	bad := 0
	for _, l := range tr.launches {
		s := d.split(l.rank, l.coll, l.at, l.done)
		if !s.ok {
			bad++
			continue
		}
		q = append(q, float64(s.queue)/1e3)
		pre = append(pre, float64(s.preempted)/1e3)
		ex = append(ex, float64(s.exec)/1e3)
		del = append(del, float64(s.deliver)/1e3)
		res = append(res, float64(s.residual)/1e3)
	}
	if bad > 0 {
		r.fail("%d launches without a complete daemon event trail", bad)
	}
	r.set("core.queue_virt_us_p50", median(q))
	r.set("core.preempted_virt_us_p50", median(pre))
	r.set("prim.exec_virt_us_p50", median(ex))
	r.set("core.deliver_virt_us_p50", median(del))
	r.set("core.unattributed_virt_us_p50", median(res))
	clusterAbsent(r)
	for _, n := range []string{"ncclsim.dense_lat_p50_us", "ncclsim.dfccl_over_nccl_p50", "ncclsim.replay_deadlocked"} {
		r.set(n, 0)
	}
}

func gcCycles(hs []hostSample) float64 {
	var n float64
	for _, h := range hs {
		n += float64(h.gcCycles)
	}
	return n
}

// fabricTiers are the shared-fabric tiers, from the GPU outward.
var fabricTiers = []string{"shm", "sys", "nic", "leaf", "spine"}

// flowLayers sets the fabric flow counts from the recorder's flow events
// within the virtual window of the fixed steps.
func flowLayers(r *report, rec *trace.Recorder, window [2]sim.Time) {
	var starts, rates float64
	for _, f := range rec.Flows {
		if f.At < window[0] || f.At > window[1] {
			continue
		}
		switch f.Kind {
		case trace.FlowStart:
			starts++
		case trace.FlowRate:
			rates++
		}
	}
	r.set("fabric.flows", starts)
	r.set("fabric.rate_changes_per_flow", ratio(rates, starts))
}

// clusterAbsent zeroes the cluster control-plane metrics on workloads
// without a cluster.
func clusterAbsent(r *report) {
	for _, n := range clusterLayerNames {
		r.set(n, 0)
	}
}

var clusterLayerNames = []string{
	"cluster.wait_p50_ms", "cluster.wait_p90_ms", "cluster.exec_p90_ms", "cluster.admissions",
	"cluster.requeues", "cluster.rejections", "cluster.pool_created", "cluster.pool_reused",
	"cluster.collapsed_traces", "cluster.sojourn_pooled_p90_ms", "cluster.sojourn_pooled_p99_ms",
}

// clusterVirt computes cluster-poisson's virtual end-to-end metrics from
// the fixed traces. Sojourn is Done minus the job's scheduled arrival.
// A trace's tail is robust to the backlog collapse only as a median over
// traces, so the p90 is the median of the per-trace p90s.
func clusterVirt(reps []*cluster.Report, r *report) map[string]float64 {
	var soj, iter, trP90, trIterP90, makespan, bw []float64
	for _, rep := range reps {
		var ts, ti []float64
		var bytes int64
		for i := range rep.Jobs {
			j := &rep.Jobs[i]
			ts = append(ts, float64(j.Latency)/1e6)
			ti = append(ti, float64(j.Done-j.Admitted)/float64(j.Spec.Iterations)/1e3)
		}
		for _, b := range rep.JobBytes {
			bytes += b
		}
		if err := checkTail("job_sojourn per trace", len(ts), 90); err != nil {
			r.fail("%v", err)
		}
		soj = append(soj, ts...)
		iter = append(iter, ti...)
		trP90 = append(trP90, percentile(ts, 90))
		trIterP90 = append(trIterP90, percentile(ti, 90))
		makespan = append(makespan, float64(rep.Elapsed)/1e6)
		bw = append(bw, busBW(float64(bytes), int64(rep.Elapsed)))
	}
	return map[string]float64{
		"step_virt_ms":       median(makespan),
		"busbw_GBps":         median(bw),
		"coll_lat_p50_us":    percentile(iter, 50),
		"coll_lat_p99_us":    median(trIterP90),
		"job_sojourn_p50_ms": percentile(soj, 50),
		"job_sojourn_p90_ms": median(trP90),
	}
}

func runClusterWorkload(seed int64, seconds float64, traced bool) *report {
	r := newReport()
	var setups []float64
	var traces [][]cluster.JobSpec
	setupRuns := clusterSetups
	if traced {
		setupRuns = 1 // set-up time is reported by --trace 0 only
	}
	for i := 0; i < setupRuns; i++ {
		t, s, err := clusterSetup(seed, clusterUnits)
		if err != nil {
			r.fail("setup: %v", err)
			r.attempted++
			r.failed++
			return r
		}
		traces, setups = t, append(setups, s)
	}
	limit := maxUnits
	if traced {
		limit = clusterUnits
	}
	base := runCluster(traces, seed, clusterUnits, limit, seconds, nil, nil)
	account(r, base.attempted, base.failed, base.runErr)
	virt := clusterVirt(base.reports, r)
	if !traced {
		r.set("setup_s", median(setups))
		hostMetrics(r, base.host, clusterUnits)
		for _, m := range endToEnd {
			if v, ok := virt[m[0]]; ok {
				r.set(m[0], v)
			}
		}
		return r
	}
	cl := &clusterLayers{}
	prof := &profiler{}
	tr := runCluster(traces, seed, clusterUnits, clusterUnits, 0, prof, cl.observe)
	account(r, tr.attempted, tr.failed, tr.runErr)
	observerCheck(r, virt, clusterVirt(tr.reports, newReport()), jobTimes(base.reports), jobTimes(tr.reports))
	r.set("trace.overhead_frac", ratio(median(walls(tr.host)), median(walls(base.host)))-1)
	profileMetrics(r, prof)
	cl.set(r, base)
	return r
}

// jobTimes lists every job's lifecycle instants, trace by trace.
func jobTimes(reps []*cluster.Report) [][3]sim.Time {
	var out [][3]sim.Time
	for _, rep := range reps {
		for _, j := range rep.Jobs {
			out = append(out, [3]sim.Time{j.Arrival, j.Admitted, j.Done})
		}
	}
	return out
}

// clusterLayers accumulates per-layer counts over the traced traces.
type clusterLayers struct {
	fetch, preempt, complete, quit, start float64
	actions, local, shm, rdma             float64
	flows, rates                          float64
}

func (c *clusterLayers) observe(_ *cluster.Report, rec *trace.Recorder) {
	for _, e := range rec.Events {
		switch e.Kind {
		case trace.EvFetch:
			c.fetch++
		case trace.EvPreempt:
			c.preempt++
		case trace.EvComplete:
			c.complete++
		case trace.EvQuit:
			c.quit++
		case trace.EvStart:
			c.start++
		}
	}
	c.actions += float64(len(rec.Actions))
	l, s, d := rec.SendBytesBy()
	c.local, c.shm, c.rdma = c.local+float64(l), c.shm+float64(s), c.rdma+float64(d)
	for _, f := range rec.Flows {
		switch f.Kind {
		case trace.FlowStart:
			c.flows++
		case trace.FlowRate:
			c.rates++
		}
	}
}

// set reports cluster-poisson's per-layer metrics. Launch instants,
// context loads and per-tier link counters are not observable through
// cluster.Run; those read -1. Per-launch ratios are per completed run.
func (c *clusterLayers) set(r *report, base *clusterResult) {
	r.set("core.launches", -1)
	r.set("core.completions", c.complete)
	r.set("core.sqes_read", c.fetch)
	r.set("core.cqes_written", -1)
	r.set("core.preemptions_per_launch", ratio(c.preempt, c.complete))
	r.set("core.ctx_loads_per_launch", -1)
	r.set("core.ctx_saves_per_launch", -1)
	r.set("core.quits_per_launch", ratio(c.quit, c.complete))
	r.set("core.daemon_starts_per_launch", ratio(c.start, c.complete))
	for _, n := range []string{"core.open_host_us", "core.close_host_us", "core.launch_host_us",
		"core.queue_virt_us_p50", "core.preempted_virt_us_p50", "core.deliver_virt_us_p50",
		"core.unattributed_virt_us_p50", "prim.exec_virt_us_p50", "prim.spin_aborts", "prim.spin_abort_ratio"} {
		r.set(n, -1)
	}
	r.set("prim.prims_executed", c.actions)
	r.set("mem.wire_bytes_local", c.local)
	r.set("mem.wire_bytes_shm", c.shm)
	r.set("mem.wire_bytes_rdma", c.rdma)
	var alloc float64
	for _, h := range base.host[:min(len(base.host), clusterUnits)] {
		alloc += float64(h.allocBytes)
	}
	r.set("mem.alloc_bytes_per_wire_byte", ratio(alloc, c.local+c.shm+c.rdma))
	r.set("runtime.gc_cycles", gcCycles(base.host))
	for _, t := range fabricTiers {
		r.set("fabric."+t+".bytes", -1)
		r.set("fabric."+t+".sat_ratio", -1)
	}
	r.set("fabric.flows", c.flows)
	r.set("fabric.rate_changes_per_flow", ratio(c.rates, c.flows))

	var wait, exec, soj, trP90 []float64
	var adm, req, rej, pc, pr float64
	for _, rep := range base.reports {
		var ts []float64
		for i := range rep.Jobs {
			j := &rep.Jobs[i]
			wait = append(wait, float64(j.Wait)/1e6)
			exec = append(exec, float64(j.Done-j.Admitted)/1e6)
			ts = append(ts, float64(j.Latency)/1e6)
		}
		soj = append(soj, ts...)
		trP90 = append(trP90, percentile(ts, 90))
		adm += float64(rep.Admissions)
		req += float64(rep.Requeues)
		rej += float64(rep.Rejections)
		pc += float64(rep.PoolCreated)
		pr += float64(rep.PoolReused)
	}
	// A trace has collapsed when its p90 sojourn exceeds ten times the
	// median trace's.
	collapsed := 0.0
	for _, p := range trP90 {
		if p > 10*median(trP90) {
			collapsed++
		}
	}
	r.set("cluster.wait_p50_ms", percentile(wait, 50))
	r.set("cluster.wait_p90_ms", percentile(wait, 90))
	r.set("cluster.exec_p90_ms", percentile(exec, 90))
	r.set("cluster.admissions", adm)
	r.set("cluster.requeues", req)
	r.set("cluster.rejections", rej)
	r.set("cluster.pool_created", pc)
	r.set("cluster.pool_reused", pr)
	r.set("cluster.collapsed_traces", collapsed)
	r.set("cluster.sojourn_pooled_p90_ms", percentile(soj, 90))
	r.set("cluster.sojourn_pooled_p99_ms", percentile(soj, 99))
	r.set("core.pool_hit_ratio", ratio(pr, pc+pr))
	r.set("ncclsim.dense_lat_p50_us", 0)
	r.set("ncclsim.dfccl_over_nccl_p50", 0)
	r.set("ncclsim.replay_deadlocked", 0)
}
