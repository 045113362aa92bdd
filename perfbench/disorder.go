package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"dfccl"
	"dfccl/internal/core"
	"dfccl/internal/orch"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/trace"
)

// disorder-hybrid: 8 ranks of one server run a hybrid-parallel step in
// which every rank belongs to three overlapping groups — the world, a
// tensor-parallel group (2 groups of 4) and a data-parallel group (4
// groups of 2) — and launches one all-reduce and one all-gather on each
// in its own order drawn from the seed. Ranks sharing a group launch
// its collectives in conflicting orders, so steps hold circular
// collective dependencies (paper Fig. 1(d), §6.1) that only preemption
// resolves.

const disorderRanks = 8

// disorderRole is one of the six collectives every rank launches.
type disorderRole struct {
	name  string
	kind  prim.Kind
	count int // elements per rank: the all-reduce length or the all-gather block
}

// The payloads stay at or below 64 KB per buffer: the workload measures
// scheduling, not bytes.
var disorderRoles = []disorderRole{
	{"world-ar", prim.AllReduce, 16384},
	{"world-ag", prim.AllGather, 2048},
	{"tp-ar", prim.AllReduce, 8192},
	{"tp-ag", prim.AllGather, 4096},
	{"dp-ar", prim.AllReduce, 4096},
	{"dp-ag", prim.AllGather, 8192},
}

// disorderGroup returns the ranks of role i's group containing rank.
func disorderGroup(role, rank int) []int {
	switch role / 2 {
	case 0:
		return []int{0, 1, 2, 3, 4, 5, 6, 7}
	case 1:
		base := rank / 4 * 4
		return []int{base, base + 1, base + 2, base + 3}
	default:
		return []int{rank % 4, rank%4 + 4}
	}
}

// disorderCollID gives every (role, group) its own collective ID.
func disorderCollID(role, rank int) int {
	switch role / 2 {
	case 0:
		return role
	case 1:
		return 2 + 2*(rank/4) + role%2
	default:
		return 6 + 2*(rank%4) + role%2
	}
}

// disorderOrders draws step s's launch orders: an independent seeded
// permutation of the roles per rank, like §6.1's first testing program.
// The untimed warm-up step (s < 0) launches in one consistent order, so
// set-up does the same work for every seed.
func disorderOrders(seed int64, s int) [][]int {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(s)))
	orders := make([][]int, disorderRanks)
	for r := range orders {
		orders[r] = rng.Perm(len(disorderRoles))
		if s < 0 {
			for i := range orders[r] {
				orders[r][i] = i
			}
		}
	}
	return orders
}

// f32 encodes float32 values little-endian, the mem.Float32 layout.
func f32(dst []byte, i int, v float32) {
	binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
}

// arInput is rank r's all-reduce input; every partial sum is an
// integer below 2^24, so the reduction is exact in any order.
func arInput(r, e int) float32 { return float32((r + 1) * (e%97 + 1)) }

// agInput is rank r's all-gather block.
func agInput(r, e int) float32 { return float32(r*65536 + e) }

type disorderRank struct {
	colls      []*dfccl.Collective // by role
	send, recv []*dfccl.Buffer
	want       [][]byte // expected recv bytes by role
}

type disorder struct {
	seed   int64
	orders [][]int // current step's per-rank launch orders
	rank   []*disorderRank
}

func newDisorder(seed int64) *disorder {
	return &disorder{seed: seed, rank: make([]*disorderRank, disorderRanks)}
}

func (d *disorder) ranks() int { return disorderRanks }

func (d *disorder) open(p *sim.Process, rc *core.RankContext, calls *callTimes) error {
	r := rc.Rank
	st := &disorderRank{}
	d.rank[r] = st
	for role, ro := range disorderRoles {
		group := disorderGroup(role, r)
		spec := prim.Spec{Kind: ro.kind, Count: ro.count, Type: dfccl.Float32, Op: dfccl.Sum, Ranks: group}
		var c *dfccl.Collective
		var err error
		timeCall(&calls.open, func() { c, err = rc.Open(spec, dfccl.WithCollID(disorderCollID(role, r))) })
		if err != nil {
			return fmt.Errorf("%s: %w", ro.name, err)
		}
		send := dfccl.NewBuffer(dfccl.Float32, ro.count)
		var recv *dfccl.Buffer
		var want []byte
		if ro.kind == prim.AllReduce {
			recv = dfccl.NewBuffer(dfccl.Float32, ro.count)
			want = make([]byte, 4*ro.count)
			for e := 0; e < ro.count; e++ {
				f32(send.Bytes(), e, arInput(r, e))
				var sum float32
				for _, m := range group {
					sum += arInput(m, e)
				}
				f32(want, e, sum)
			}
		} else {
			recv = dfccl.NewBuffer(dfccl.Float32, ro.count*len(group))
			want = make([]byte, 4*ro.count*len(group))
			for e := 0; e < ro.count; e++ {
				f32(send.Bytes(), e, agInput(r, e))
			}
			for k, m := range group {
				for e := 0; e < ro.count; e++ {
					f32(want, k*ro.count+e, agInput(m, e))
				}
			}
		}
		st.colls = append(st.colls, c)
		st.send = append(st.send, send)
		st.recv = append(st.recv, recv)
		st.want = append(st.want, want)
	}
	return nil
}

func (d *disorder) prepare(s int) {
	d.orders = disorderOrders(d.seed, s)
	for _, st := range d.rank {
		for _, b := range st.recv {
			clear(b.Bytes())
		}
	}
}

func (d *disorder) step(p *sim.Process, rc *core.RankContext, s int, lg *launchLog, calls *callTimes) error {
	st := d.rank[rc.Rank]
	for _, role := range d.orders[rc.Rank] {
		if err := lg.launchCB(p, st.colls[role], st.send[role], st.recv[role], false, calls); err != nil {
			return err
		}
	}
	return nil
}

func (d *disorder) verify(rank, s int, wrong func(coll int)) {
	st := d.rank[rank]
	for role, c := range st.colls {
		if !bytes.Equal(st.recv[role].Bytes(), st.want[role]) {
			wrong(c.ID())
		}
	}
}

func (d *disorder) close(p *sim.Process, rank int, calls *callTimes) error {
	for _, c := range d.rank[rank].colls {
		var err error
		timeCall(&calls.close, func() { err = c.Close(p) })
		if err != nil {
			return err
		}
	}
	return nil
}

func disorderLib(rec *trace.Recorder) *dfccl.Library {
	cfg := dfccl.DefaultConfig()
	if rec != nil {
		cfg.Recorder, cfg.Tracer = rec, rec
	}
	return dfccl.NewWithConfig(dfccl.Server3090(disorderRanks), cfg)
}

// replayNCCL launches the recorded per-step orders back to back on the
// single-stream NCCL baseline (no preemption) and reports whether the
// engine found the global deadlock DFCCL avoided.
func replayNCCL(steps [][][]int) (bool, error) {
	e := sim.NewEngine()
	e.MaxTime = sim.Time(60 * sim.Second)
	b := orch.NewNCCLSingleStream(e, topo.Server3090(disorderRanks))
	var firstErr error
	for r := 0; r < disorderRanks; r++ {
		r := r
		e.Spawn(fmt.Sprintf("nccl%d", r), func(p *sim.Process) {
			for role, ro := range disorderRoles {
				spec := prim.Spec{Kind: ro.kind, Count: ro.count, Type: dfccl.Float32, Op: dfccl.Sum,
					Ranks: disorderGroup(role, r), TimingOnly: true}
				if err := b.Register(p, r, disorderCollID(role, r), spec, 0); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			for _, orders := range steps {
				for _, role := range orders[r] {
					if err := b.Launch(p, r, disorderCollID(role, r)); err != nil && firstErr == nil {
						firstErr = err
					}
				}
			}
			b.WaitAll(p, r)
		})
	}
	err := e.Run()
	return err != nil, firstErr
}
