package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"dfccl"
	"dfccl/internal/core"
	"dfccl/internal/cudasim"
	"dfccl/internal/ncclsim"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/trace"
)

// moe-step: 16 ranks on two 8-GPU servers sharing a fabric whose leaf
// and spine are oversubscribed 2:1. Each step dispatches tokens to
// experts with a hierarchical AllToAllv, combines them back with the
// transposed counts, then all-reduces the dense gradients. The expert
// collectives are opened and closed every step because their counts
// change; the dense all-reduces are persistent.

const (
	moeMachines = 2
	moeRanks    = 8 * moeMachines
	moeTokens   = 512 // tokens per rank per step
	moeHidden   = 32  // elements per token
	moeOversub  = 2
)

// moeDense are the dense-gradient all-reduce lengths (16 KB .. 4 MB of
// float32), launched in this order by every rank.
var moeDense = []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}

// moeRouting draws step s's count matrix: counts[i][j] elements flow
// from rank i to expert j. Expert popularity is Zipf-skewed (weight
// 1/(k+1)) over a per-step random ranking, so a few hot experts take
// most tokens and the hot set moves every step; each token picks two
// distinct experts.
func moeRouting(seed int64, s int) [][]int {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(s)))
	rank := rng.Perm(moeRanks)
	w := make([]float64, moeRanks)
	total := 0.0
	for j := range w {
		w[j] = 1 / float64(rank[j]+1)
		total += w[j]
	}
	pick := func(skip int) int {
		for {
			x := rng.Float64() * total
			for j, wj := range w {
				if x < wj {
					if j != skip {
						return j
					}
					break
				}
				x -= wj
			}
		}
	}
	counts := make([][]int, moeRanks)
	for i := range counts {
		counts[i] = make([]int, moeRanks)
		for t := 0; t < moeTokens; t++ {
			a := pick(-1)
			b := pick(a)
			counts[i][a] += moeHidden
			counts[i][b] += moeHidden
		}
	}
	return counts
}

func transpose(m [][]int) [][]int {
	t := make([][]int, len(m[0]))
	for j := range t {
		t[j] = make([]int, len(m))
		for i := range m {
			t[j][i] = m[i][j]
		}
	}
	return t
}

// tokenInput is element e of the block rank i sends to expert j: an
// integer below 2^24, exact in float32.
func tokenInput(i, j, e int) float32 { return float32((i*moeRanks+j)*4096 + e%4096) }

type moeRank struct {
	dense     []*dfccl.Collective
	denseSend []*dfccl.Buffer
	denseRecv []*dfccl.Buffer
	// Per-step expert buffers: dispatch send (row i), dispatch recv
	// (column i, reused as the combine send) and combine recv.
	dispSend, dispRecv, combRecv *dfccl.Buffer
	dispID, combID               int
}

type moeStep struct {
	seed      int64
	ranksAll  []int
	counts    [][]int // step routing; combine uses its transpose
	combine   [][]int
	denseWant [][]byte
	rank      []*moeRank
}

func newMoE(seed int64) *moeStep {
	m := &moeStep{seed: seed, rank: make([]*moeRank, moeRanks)}
	for r := 0; r < moeRanks; r++ {
		m.ranksAll = append(m.ranksAll, r)
	}
	for _, n := range moeDense {
		want := make([]byte, 4*n)
		for e := 0; e < n; e++ {
			var sum float32
			for r := 0; r < moeRanks; r++ {
				sum += arInput(r, e)
			}
			f32(want, e, sum)
		}
		m.denseWant = append(m.denseWant, want)
	}
	return m
}

func (m *moeStep) ranks() int { return moeRanks }

func (m *moeStep) open(p *sim.Process, rc *core.RankContext, calls *callTimes) error {
	st := &moeRank{}
	m.rank[rc.Rank] = st
	for _, n := range moeDense {
		var c *dfccl.Collective
		var err error
		timeCall(&calls.open, func() {
			c, err = rc.Open(dfccl.AllReduce(n, dfccl.Float32, dfccl.Sum, m.ranksAll...), dfccl.WithAlgorithm(dfccl.AlgoAuto))
		})
		if err != nil {
			return err
		}
		send := dfccl.NewBuffer(dfccl.Float32, n)
		for e := 0; e < n; e++ {
			f32(send.Bytes(), e, arInput(rc.Rank, e))
		}
		st.dense = append(st.dense, c)
		st.denseSend = append(st.denseSend, send)
		st.denseRecv = append(st.denseRecv, dfccl.NewBuffer(dfccl.Float32, n))
	}
	return nil
}

// prepare routes step s and builds every rank's dispatch payload.
func (m *moeStep) prepare(s int) {
	m.counts = moeRouting(m.seed, s)
	m.combine = transpose(m.counts)
	for i, st := range m.rank {
		row, col := 0, 0
		for j := 0; j < moeRanks; j++ {
			row += m.counts[i][j]
			col += m.counts[j][i]
		}
		st.dispSend = dfccl.NewBuffer(dfccl.Float32, row)
		st.dispRecv = dfccl.NewBuffer(dfccl.Float32, col)
		st.combRecv = dfccl.NewBuffer(dfccl.Float32, row)
		off := 0
		for j := 0; j < moeRanks; j++ {
			for e := 0; e < m.counts[i][j]; e++ {
				f32(st.dispSend.Bytes(), off+e, tokenInput(i, j, e))
			}
			off += m.counts[i][j]
		}
		for _, b := range st.denseRecv {
			clear(b.Bytes())
		}
	}
}

func (m *moeStep) step(p *sim.Process, rc *core.RankContext, s int, lg *launchLog, calls *callTimes) error {
	st := m.rank[rc.Rank]
	expert := func(counts [][]int, send, recv *dfccl.Buffer) (int, error) {
		var c *dfccl.Collective
		var err error
		timeCall(&calls.open, func() {
			c, err = rc.Open(dfccl.AllToAllv(dfccl.Float32, m.ranksAll...),
				dfccl.WithCounts(counts), dfccl.WithAlgorithm(dfccl.AlgoHierarchical))
		})
		if err != nil {
			return -1, err
		}
		if err := lg.launchCB(p, c, send, recv, false, calls); err != nil {
			return c.ID(), err
		}
		rc.WaitAll(p)
		timeCall(&calls.close, func() { err = c.Close(p) })
		return c.ID(), err
	}
	var err error
	if st.dispID, err = expert(m.counts, st.dispSend, st.dispRecv); err != nil {
		return fmt.Errorf("dispatch: %w", err)
	}
	if st.combID, err = expert(m.combine, st.dispRecv, st.combRecv); err != nil {
		return fmt.Errorf("combine: %w", err)
	}
	for k, c := range st.dense {
		if err := lg.launchCB(p, c, st.denseSend[k], st.denseRecv[k], true, calls); err != nil {
			return fmt.Errorf("dense %d: %w", k, err)
		}
	}
	return nil
}

func (m *moeStep) verify(rank, s int, wrong func(coll int)) {
	st := m.rank[rank]
	// Dispatch: column `rank` of the count matrix, in origin order.
	ok := true
	off := 0
	raw := st.dispRecv.Bytes()
	for i := 0; i < moeRanks && ok; i++ {
		for e := 0; e < m.counts[i][rank]; e++ {
			if binary.LittleEndian.Uint32(raw[4*(off+e):]) != math.Float32bits(tokenInput(i, rank, e)) {
				ok = false
				break
			}
		}
		off += m.counts[i][rank]
	}
	if !ok || off != st.dispRecv.Len() {
		wrong(st.dispID)
	}
	// Combine returns every token to its origin unchanged.
	if !bytes.Equal(st.combRecv.Bytes(), st.dispSend.Bytes()) {
		wrong(st.combID)
	}
	for k, c := range st.dense {
		if !bytes.Equal(st.denseRecv[k].Bytes(), m.denseWant[k]) {
			wrong(c.ID())
		}
	}
}

func (m *moeStep) close(p *sim.Process, rank int, calls *callTimes) error {
	for _, c := range m.rank[rank].dense {
		var err error
		timeCall(&calls.close, func() { err = c.Close(p) })
		if err != nil {
			return err
		}
	}
	return nil
}

func moeLib(rec *trace.Recorder) *dfccl.Library {
	cl := dfccl.MultiNode3090(moeMachines)
	cfg := dfccl.DefaultConfig()
	cfg.Network = dfccl.SharedFabric(cl, dfccl.OversubFabricConfig(moeOversub))
	if rec != nil {
		cfg.Recorder, cfg.Tracer = rec, rec
	}
	return dfccl.NewWithConfig(cl, cfg)
}

// ncclDense runs moe-step's dense all-reduce phase alone on the NCCL
// reference library over the same cluster and fabric shape, for steps
// steps, and returns every launch's virtual latency in µs. Each rank
// launches the all-reduces back to back on one stream, as a training
// framework does with gradient buckets, so they run in order.
func ncclDense(steps int) ([]float64, error) {
	e := sim.NewEngine()
	e.MaxTime = sim.Time(600 * sim.Second)
	cl := dfccl.MultiNode3090(moeMachines)
	lib := ncclsim.NewOnFabric(e, dfccl.SharedFabric(cl, dfccl.OversubFabricConfig(moeOversub)))
	ranks := make([]int, moeRanks)
	for r := range ranks {
		ranks[r] = r
	}
	comms := make([]*ncclsim.Comm, len(moeDense))
	for k := range comms {
		comms[k] = lib.NewComm(ranks)
	}
	var lat []float64
	g := newGate(moeRanks)
	for r := 0; r < moeRanks; r++ {
		r := r
		e.Spawn(fmt.Sprintf("nccl%d", r), func(p *sim.Process) {
			stream := lib.Device(r).NewStream()
			empty := dfccl.NewBuffer(dfccl.Float32, 0)
			for s := 0; s < steps; s++ {
				g.wait(p, nil)
				var ks []*cudasim.KernelInstance
				var at []sim.Time
				for k, n := range moeDense {
					spec := prim.Spec{Kind: prim.AllReduce, Count: n, Type: dfccl.Float32, Op: dfccl.Sum,
						Ranks: ranks, Algo: prim.AlgoAuto, TimingOnly: true}
					at = append(at, p.Now())
					ks = append(ks, comms[k].Launch(p, stream, r, spec, empty, empty))
				}
				for k, ki := range ks {
					ki.Wait(p)
					lat = append(lat, float64(p.Now().Sub(at[k]))/1e3)
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		return nil, err
	}
	return lat, nil
}
