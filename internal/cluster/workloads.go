package cluster

import (
	"fmt"
	"math"

	"dfccl/internal/core"
	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
)

// jobWorkload is one member's view of a job's training loop: setup
// opens the job's persistent collectives over the attempt's members,
// iter runs one stateless iteration (launch, wait, verify every
// element) returning the FNV-1a fingerprint of this member's verified
// outputs, and refHash computes — without any simulation — the
// fingerprint the lead (pos 0) member must produce: the solo
// reference. Iterations are pure functions of (members, iteration), so
// retrying one after an abort is idempotent. Every payload mixes the
// job ID in, so two tenants never carry the same data and cross-tenant
// leakage cannot cancel out in a hash. All payloads are small integers
// in float64, making reductions order-independent and bit-exact.
type jobWorkload interface {
	setup(p *sim.Process, rc *core.RankContext, members []int) error
	iter(p *sim.Process, rc *core.RankContext, members []int, pos, it int) (uint64, error)
	refHash(members []int, it int) uint64
	teardown(p *sim.Process)
}

// shape is one driver's workload sizes. Sizes set virtual time, so
// each driver keeps its own: the elastic runs keep the larger payloads
// their committed fault-scenario timelines were measured at, the tenant
// jobs smaller ones so a many-job trace fits a test budget. A shape is
// data, never a setting.
type shape struct {
	// DP layer l has dpBase + dpStep*l elements.
	dpBase, dpStep int
	// MoE routing: rank src sends (j*5 + src*3 + dst*tokDst + it*tokIt)
	// % tokMod tokens to the expert on rank dst at iteration it of job j.
	tokDst, tokIt, tokMod int
	// shardElems is the ZeRO per-member parameter shard size.
	shardElems int
}

var (
	tenantShape  = &shape{dpBase: 6, dpStep: 2, tokDst: 7, tokIt: 11, tokMod: 3, shardElems: 3}
	elasticShape = &shape{dpBase: 8, dpStep: 4, tokDst: 5, tokIt: 7, tokMod: 4, shardElems: 4}
)

func (s shape) layerCount(l int) int { return s.dpBase + s.dpStep*l }

// tokens is the number of tokens rank src routes to the expert on rank
// dst at an iteration of job j.
func (s shape) tokens(j, src, dst, it int) int {
	return (j*5 + src*3 + dst*s.tokDst + it*s.tokIt) % s.tokMod
}

// newJobWorkload builds the job's workload at the given shape; it
// validates Kind.
func newJobWorkload(spec JobSpec, sh *shape) (jobWorkload, error) {
	layers := spec.Layers
	if layers <= 0 {
		layers = 2
	}
	switch spec.Kind {
	case "dp":
		return &cjDP{job: spec, sh: sh, layers: layers}, nil
	case "moe":
		return &cjMoE{job: spec, sh: sh}, nil
	case "zero":
		return &cjZeRO{job: spec, sh: sh}, nil
	case "hybrid":
		return &cjHybrid{dp: cjDP{job: spec, sh: sh, layers: layers}, moe: cjMoE{job: spec, sh: sh}}, nil
	default:
		return nil, fmt.Errorf("cluster: job %d has unknown kind %q", spec.ID, spec.Kind)
	}
}

// Explicit collective IDs: each job owns the [ID*64, ID*64+64) block,
// well below core.AutoCollIDBase, so concurrent tenants can never
// collide on an ID — and the core-level job check makes any collision
// a hard error rather than silent sharing. Persistent collectives use
// base+k; per-iteration dynamic collectives (the MoE dispatch) use
// base+dynOff, reopened and closed every iteration to churn the pool.
const (
	collIDBlock = 64
	dynOff      = 32
)

func collBase(job JobSpec) int { return job.ID * collIDBlock }

// opts returns the open options every collective of the job carries.
func jobOpts(job JobSpec, collID int) []core.OpenOption {
	return []core.OpenOption{
		core.WithCollID(collID),
		core.WithJob(job.ID),
		core.WithPriority(job.Priority),
	}
}

// FNV-1a over IEEE-754 bits, element order fixed by the caller.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvAdd(h uint64, v float64) uint64 {
	bits := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		h ^= bits >> (8 * i) & 0xff
		h *= fnvPrime
	}
	return h
}

// ---- data-parallel gradient AllReduce ----

// cjGrad is rank r's local gradient for element i of layer l at
// iteration it of job j: small integers, so cross-rank sums are exact,
// and distinct per job.
func cjGrad(j, r, l, it, i int) float64 {
	return float64((j*13+r*7+l*5+it*3+i)%9 - 4)
}

type cjDP struct {
	job     JobSpec
	sh      *shape
	layers  int
	handles []*core.Collective
	sends   []*mem.Buffer
	recvs   []*mem.Buffer
}

func (w *cjDP) setup(p *sim.Process, rc *core.RankContext, members []int) error {
	for l := 0; l < w.layers; l++ {
		count := w.sh.layerCount(l)
		spec := prim.Spec{Kind: prim.AllReduce, Count: count, Type: mem.Float64, Op: mem.Sum, Ranks: members, Algo: w.job.Algo}
		h, err := rc.Open(spec, jobOpts(w.job, collBase(w.job)+l)...)
		if err != nil {
			return err
		}
		w.handles = append(w.handles, h)
		w.sends = append(w.sends, mem.NewBuffer(mem.DeviceSpace, mem.Float64, count))
		w.recvs = append(w.recvs, mem.NewBuffer(mem.DeviceSpace, mem.Float64, count))
	}
	return nil
}

func (w *cjDP) iter(p *sim.Process, rc *core.RankContext, members []int, pos, it int) (uint64, error) {
	rank := members[pos]
	futs := make([]*core.Future, 0, w.layers)
	for l, h := range w.handles {
		for i := 0; i < w.sends[l].Len(); i++ {
			w.sends[l].SetFloat64(i, cjGrad(w.job.ID, rank, l, it, i))
		}
		fut, err := h.Launch(p, w.sends[l], w.recvs[l])
		if err != nil {
			for _, f := range futs {
				f.Wait(p)
			}
			return 0, err
		}
		futs = append(futs, fut)
	}
	var firstErr error
	for _, f := range futs {
		if err := f.Wait(p); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return 0, firstErr
	}
	h := uint64(fnvOffset)
	for l := range w.handles {
		for i := 0; i < w.recvs[l].Len(); i++ {
			want := 0.0
			for _, m := range members {
				want += cjGrad(w.job.ID, m, l, it, i)
			}
			got := w.recvs[l].Float64At(i)
			if got != want {
				return 0, fmt.Errorf("cluster: job %d dp layer %d elem %d = %v, want %v (rank %d it %d)", w.job.ID, l, i, got, want, rank, it)
			}
			h = fnvAdd(h, got)
		}
	}
	return h, nil
}

func (w *cjDP) refHash(members []int, it int) uint64 {
	h := uint64(fnvOffset)
	for l := 0; l < w.layers; l++ {
		for i := 0; i < w.sh.layerCount(l); i++ {
			sum := 0.0
			for _, m := range members {
				sum += cjGrad(w.job.ID, m, l, it, i)
			}
			h = fnvAdd(h, sum)
		}
	}
	return h
}

func (w *cjDP) teardown(p *sim.Process) {
	for _, h := range w.handles {
		h.Close(p)
	}
	w.handles = nil
}

// ---- MoE token dispatch with runtime count gather ----

// cjElemsPerTok is the per-token payload in float64 elements.
const cjElemsPerTok = 2

// cjElem is token element k of the (src → dst) block of job j.
func cjElem(j, src, dst, it, k int) float64 {
	return float64(j*10000 + src*1000 + dst*100 + (it+k)%10)
}

type cjMoE struct {
	job        JobSpec
	sh         *shape
	counts     *core.Collective
	countsSend *mem.Buffer
	countsRecv *mem.Buffer
}

func (w *cjMoE) setup(p *sim.Process, rc *core.RankContext, members []int) error {
	n := len(members)
	h, err := rc.Open(prim.Spec{Kind: prim.AllGather, Count: n, Type: mem.Float64, Ranks: members},
		jobOpts(w.job, collBase(w.job)+dynOff-1)...)
	if err != nil {
		return err
	}
	w.counts = h
	w.countsSend = mem.NewBuffer(mem.DeviceSpace, mem.Float64, n)
	w.countsRecv = mem.NewBuffer(mem.DeviceSpace, mem.Float64, n*n)
	return nil
}

func (w *cjMoE) iter(p *sim.Process, rc *core.RankContext, members []int, pos, it int) (uint64, error) {
	n := len(members)
	rank := members[pos]
	// Phase 1: all-gather the routing count matrix; each member
	// contributes only its own row.
	for j := 0; j < n; j++ {
		w.countsSend.SetFloat64(j, float64(w.sh.tokens(w.job.ID, rank, members[j], it)))
	}
	fut, err := w.counts.Launch(p, w.countsSend, w.countsRecv)
	if err != nil {
		return 0, err
	}
	if err := fut.Wait(p); err != nil {
		return 0, err
	}
	counts := make([][]int, n)
	for i := 0; i < n; i++ {
		counts[i] = make([]int, n)
		for j := 0; j < n; j++ {
			toks := int(w.countsRecv.Float64At(i*n + j))
			if want := w.sh.tokens(w.job.ID, members[i], members[j], it); toks != want {
				return 0, fmt.Errorf("cluster: job %d moe gathered count[%d][%d] = %d, want %d (members %v it %d)", w.job.ID, i, j, toks, want, members, it)
			}
			counts[i][j] = toks * cjElemsPerTok
		}
	}
	// Phase 2: ragged dispatch sized by the gathered matrix, opened and
	// closed every iteration — the pool-churn path under multi-tenancy.
	spec := prim.Spec{Kind: prim.AllToAllv, Type: mem.Float64, Ranks: members, Counts: counts, ChunkElems: 4, Algo: w.job.Algo}
	disp, err := rc.Open(spec, jobOpts(w.job, collBase(w.job)+dynOff)...)
	if err != nil {
		return 0, err
	}
	sendCount, recvCount := prim.BufferCountsFor(spec, pos)
	send := mem.NewBuffer(mem.DeviceSpace, mem.Float64, sendCount)
	recv := mem.NewBuffer(mem.DeviceSpace, mem.Float64, recvCount)
	off := 0
	for j := 0; j < n; j++ {
		for k := 0; k < counts[pos][j]; k++ {
			send.SetFloat64(off+k, cjElem(w.job.ID, rank, members[j], it, k))
		}
		off += counts[pos][j]
	}
	fut, err = disp.Launch(p, send, recv)
	if err == nil {
		err = fut.Wait(p)
	}
	if err != nil {
		disp.Close(p)
		return 0, err
	}
	h := uint64(fnvOffset)
	off = 0
	for i := 0; i < n; i++ {
		for k := 0; k < counts[i][pos]; k++ {
			got := recv.Float64At(off + k)
			if want := cjElem(w.job.ID, members[i], rank, it, k); got != want {
				return 0, fmt.Errorf("cluster: job %d moe recv block from %d elem %d = %v, want %v (rank %d it %d)", w.job.ID, members[i], k, got, want, rank, it)
			}
			h = fnvAdd(h, got)
		}
		off += counts[i][pos]
	}
	if err := disp.Close(p); err != nil {
		return 0, err
	}
	return h, nil
}

func (w *cjMoE) refHash(members []int, it int) uint64 {
	h := uint64(fnvOffset)
	lead := members[0]
	for _, src := range members {
		toks := w.sh.tokens(w.job.ID, src, lead, it)
		for k := 0; k < toks*cjElemsPerTok; k++ {
			h = fnvAdd(h, cjElem(w.job.ID, src, lead, it, k))
		}
	}
	return h
}

func (w *cjMoE) teardown(p *sim.Process) {
	if w.counts != nil {
		w.counts.Close(p)
		w.counts = nil
	}
}

// ---- ZeRO-style sharded exchange: ReduceScatter + AllGather ----

// cjZGrad is rank r's local gradient for element i of job j's full
// vector.
func cjZGrad(j, r, it, i int) float64 { return float64((j*17+r*5+it*3+i)%7 - 3) }

// cjZShard is the deterministic shard value rank r contributes to job
// j's parameter all-gather.
func cjZShard(j, r, it, i int) float64 { return float64((j*19+r*11+it*2+i)%13 - 6) }

type cjZeRO struct {
	job            JobSpec
	sh             *shape
	rs, ag         *core.Collective
	rsSend, rsRecv *mem.Buffer
	agSend, agRecv *mem.Buffer
}

func (w *cjZeRO) setup(p *sim.Process, rc *core.RankContext, members []int) error {
	n := len(members)
	full := w.sh.shardElems * n
	rs, err := rc.Open(prim.Spec{Kind: prim.ReduceScatter, Count: full, Type: mem.Float64, Op: mem.Sum, Ranks: members, Algo: w.job.Algo},
		jobOpts(w.job, collBase(w.job))...)
	if err != nil {
		return err
	}
	ag, err := rc.Open(prim.Spec{Kind: prim.AllGather, Count: w.sh.shardElems, Type: mem.Float64, Ranks: members, Algo: w.job.Algo},
		jobOpts(w.job, collBase(w.job)+1)...)
	if err != nil {
		rs.Close(p)
		return err
	}
	w.rs, w.ag = rs, ag
	w.rsSend = mem.NewBuffer(mem.DeviceSpace, mem.Float64, full)
	w.rsRecv = mem.NewBuffer(mem.DeviceSpace, mem.Float64, w.sh.shardElems)
	w.agSend = mem.NewBuffer(mem.DeviceSpace, mem.Float64, w.sh.shardElems)
	w.agRecv = mem.NewBuffer(mem.DeviceSpace, mem.Float64, full)
	return nil
}

func (w *cjZeRO) iter(p *sim.Process, rc *core.RankContext, members []int, pos, it int) (uint64, error) {
	rank := members[pos]
	for i := 0; i < w.rsSend.Len(); i++ {
		w.rsSend.SetFloat64(i, cjZGrad(w.job.ID, rank, it, i))
	}
	for i := 0; i < w.sh.shardElems; i++ {
		w.agSend.SetFloat64(i, cjZShard(w.job.ID, rank, it, i))
	}
	futRS, err := w.rs.Launch(p, w.rsSend, w.rsRecv)
	if err != nil {
		return 0, err
	}
	futAG, err := w.ag.Launch(p, w.agSend, w.agRecv)
	if err != nil {
		futRS.Wait(p)
		return 0, err
	}
	errRS, errAG := futRS.Wait(p), futAG.Wait(p)
	if errRS != nil {
		return 0, errRS
	}
	if errAG != nil {
		return 0, errAG
	}
	h := uint64(fnvOffset)
	for i := 0; i < w.sh.shardElems; i++ {
		want := 0.0
		for _, m := range members {
			want += cjZGrad(w.job.ID, m, it, pos*w.sh.shardElems+i)
		}
		got := w.rsRecv.Float64At(i)
		if got != want {
			return 0, fmt.Errorf("cluster: job %d zero grad shard elem %d = %v, want %v (rank %d it %d)", w.job.ID, i, got, want, rank, it)
		}
		h = fnvAdd(h, got)
	}
	for j := range members {
		for i := 0; i < w.sh.shardElems; i++ {
			got := w.agRecv.Float64At(j*w.sh.shardElems + i)
			if want := cjZShard(w.job.ID, members[j], it, i); got != want {
				return 0, fmt.Errorf("cluster: job %d zero gathered shard %d elem %d = %v, want %v (rank %d it %d)", w.job.ID, j, i, got, want, rank, it)
			}
			h = fnvAdd(h, got)
		}
	}
	return h, nil
}

func (w *cjZeRO) refHash(members []int, it int) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < w.sh.shardElems; i++ {
		sum := 0.0
		for _, m := range members {
			sum += cjZGrad(w.job.ID, m, it, i) // pos 0's shard starts at offset 0
		}
		h = fnvAdd(h, sum)
	}
	for _, m := range members {
		for i := 0; i < w.sh.shardElems; i++ {
			h = fnvAdd(h, cjZShard(w.job.ID, m, it, i))
		}
	}
	return h
}

func (w *cjZeRO) teardown(p *sim.Process) {
	if w.rs != nil {
		w.rs.Close(p)
		w.rs = nil
	}
	if w.ag != nil {
		w.ag.Close(p)
		w.ag = nil
	}
}

// ---- hybrid: DP gradient all-reduce + MoE dispatch per iteration ----

// cjHybrid composes the DP all-reduce layers with the MoE runtime
// count gather and ragged dispatch in one iteration — the mixed
// (persistent + dynamic) collective footprint of a real hybrid-
// parallel job. The MoE half uses the job's dynamic ID slot, the DP
// half the persistent slots, so the two never collide.
type cjHybrid struct {
	dp  cjDP
	moe cjMoE
}

func (w *cjHybrid) setup(p *sim.Process, rc *core.RankContext, members []int) error {
	if err := w.dp.setup(p, rc, members); err != nil {
		return err
	}
	if err := w.moe.setup(p, rc, members); err != nil {
		w.dp.teardown(p)
		return err
	}
	return nil
}

func (w *cjHybrid) iter(p *sim.Process, rc *core.RankContext, members []int, pos, it int) (uint64, error) {
	hd, err := w.dp.iter(p, rc, members, pos, it)
	if err != nil {
		return 0, err
	}
	hm, err := w.moe.iter(p, rc, members, pos, it)
	if err != nil {
		return 0, err
	}
	return hd ^ hm, nil
}

func (w *cjHybrid) refHash(members []int, it int) uint64 {
	return w.dp.refHash(members, it) ^ w.moe.refHash(members, it)
}

func (w *cjHybrid) teardown(p *sim.Process) {
	w.moe.teardown(p)
	w.dp.teardown(p)
}
