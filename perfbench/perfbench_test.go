package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"

	"dfccl/internal/sim"
	"dfccl/internal/trace"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {10, 1}, {11, 2}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median of four = %v, want the lower middle 2", got)
	}
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{100, 90, 10}, {99, 90, 9}, {1000, 99, 10}, {1120, 99, 11}, {999, 99, 9}, {10, 50, 5},
	} {
		if got := beyond(c.n, c.p); got != c.beyond {
			t.Errorf("beyond(%d, p%g) = %d, want %d", c.n, c.p, got, c.beyond)
		}
		if err := checkTail("x", c.n, c.p); (err == nil) != (c.beyond >= 10) {
			t.Errorf("checkTail(%d, p%g) = %v", c.n, c.p, err)
		}
	}
}

func TestBusBandwidth(t *testing.T) {
	// A 4 MiB all-reduce over 16 ranks in 1 ms: 4 MiB·2·15/16 bytes
	// per 10^6 ns.
	bus := busBytes(true, 4<<20, 16)
	if want := float64(4<<20) * 2 * 15 / 16; bus != want {
		t.Fatalf("all-reduce bus bytes = %v, want %v", bus, want)
	}
	if got, want := busBW(bus, 1_000_000), 7.86432; math.Abs(got-want) > 1e-12 {
		t.Errorf("busbw = %v GB/s, want %v", got, want)
	}
	// An all-gather of 64 KiB in total over 8 ranks moves 7/8 of it.
	if got, want := busBytes(false, 64<<10, 8), float64(64<<10)*7/8; got != want {
		t.Errorf("all-gather bus bytes = %v, want %v", got, want)
	}
	if busBW(1, 0) != 0 {
		t.Error("busbw over an empty span must be 0")
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memmove", "dfccl/internal/mem.(*Connector).Write", "dfccl/internal/prim.(*Executor).StepOnce"}, "mem"},
		{[]string{"runtime.mallocgc", "dfccl/internal/prim.(*Executor).StepOnce"}, "prim"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "dfccl/internal/core.f"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.futexwakeup", "runtime.chansend", "dfccl/internal/sim.(*Process).Sleep"}, "runtime.sched"},
		{[]string{"runtime.findRunnable", "runtime.schedule"}, "runtime.sched"},
		{[]string{"dfccl/internal/sim.(*eventQueue).push", "dfccl/internal/sim.(*Engine).schedule"}, "sim"},
		{[]string{"bytes.Equal", "main.(*moeStep).verify", "dfccl/internal/sim.(*Engine).Spawn.func1"}, "bench"},
		{[]string{"main.(*launchLog).launchCB.func1", "dfccl/internal/core.(*RankContext).pollerBody"}, "bench"},
		{[]string{"dfccl/internal/orch.(*DFCCL).Launch"}, "other"},
		{[]string{"dfccl.(*Library).Run"}, "other"},
		{[]string{"runtime.sysmon", "runtime.mstart1"}, "other"},
		{[]string{"runtime/pprof.profileWriter"}, "bench"},
	} {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// protoField appends one protobuf field: a varint, or a length-
// delimited payload when b is non-nil.
func protoField(dst []byte, num int, v uint64, b []byte) []byte {
	if b != nil {
		dst = binary.AppendUvarint(dst, uint64(num)<<3|2)
		dst = binary.AppendUvarint(dst, uint64(len(b)))
		return append(dst, b...)
	}
	dst = binary.AppendUvarint(dst, uint64(num)<<3)
	return binary.AppendUvarint(dst, v)
}

// syntheticProfile builds a gzipped profile.proto with the given
// stacks (function names, innermost first). Location k holds function
// k with the one-frame line list; the first sample uses a packed
// location list, the rest unpacked fields, as runtime/pprof mixes both.
func syntheticProfile(t *testing.T, stacks []stack) []byte {
	t.Helper()
	strs := []string{""}
	ids := map[string]uint64{}
	var msg []byte
	for i, s := range stacks {
		var locs []uint64
		for _, f := range s.frames {
			if ids[f] == 0 {
				strs = append(strs, f)
				ids[f] = uint64(len(strs) - 1)
			}
			locs = append(locs, ids[f])
		}
		var sample []byte
		if i == 0 {
			var packed []byte
			for _, l := range locs {
				packed = binary.AppendUvarint(packed, l)
			}
			sample = protoField(sample, 1, 0, packed)
		} else {
			for _, l := range locs {
				sample = protoField(sample, 1, l, nil)
			}
		}
		sample = protoField(sample, 2, uint64(s.count), nil)
		sample = protoField(sample, 2, uint64(s.count)*10_000_000, nil)
		msg = protoField(msg, 2, 0, sample)
	}
	for f, id := range ids {
		line := protoField(nil, 1, id, nil)
		loc := protoField(protoField(nil, 1, id, nil), 4, 0, line)
		msg = protoField(msg, 4, 0, loc)
		fn := protoField(protoField(nil, 1, id, nil), 2, uint64(ids[f]), nil)
		msg = protoField(msg, 5, 0, fn)
	}
	for _, s := range strs {
		msg = protoField(msg, 6, 0, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestProfileBucketing(t *testing.T) {
	in := []stack{
		{[]string{"runtime.memmove", "dfccl/internal/mem.(*Connector).Write"}, 5},
		{[]string{"dfccl/internal/core.(*optimizedCQ).Drain", "dfccl/internal/core.(*RankContext).pollerBody"}, 3},
		{[]string{"runtime.futex", "runtime.chanrecv", "dfccl/internal/sim.(*Engine).step"}, 2},
		{[]string{"main.(*disorder).verify"}, 1},
		{[]string{"runtime.gcBgMarkWorker"}, 1},
	}
	stacks, err := parseProfile(syntheticProfile(t, in))
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != len(in) {
		t.Fatalf("parsed %d samples, want %d", len(stacks), len(in))
	}
	for i := range in {
		if stacks[i].count != in[i].count || len(stacks[i].frames) != len(in[i].frames) || stacks[i].frames[0] != in[i].frames[0] {
			t.Errorf("sample %d = %+v, want %+v", i, stacks[i], in[i])
		}
	}
	sh, total := shares(stacks)
	if total != 12 {
		t.Fatalf("total samples %d, want 12", total)
	}
	want := map[string]float64{"mem": 5.0 / 12, "core": 3.0 / 12, "runtime.sched": 2.0 / 12, "bench": 1.0 / 12, "runtime.gc": 1.0 / 12}
	sum := 0.0
	for _, b := range bucketNames {
		sum += sh[b]
		if sh[b] != want[b] {
			t.Errorf("share[%s] = %v, want %v", b, sh[b], want[b])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
	if got := cqShare(stacks); got != 3.0/12 {
		t.Errorf("cq share = %v, want %v", got, 3.0/12)
	}
}

func TestDecompositionResidual(t *testing.T) {
	// One launch of collective 7 on GPU 2 at t=100, delivered at t=1000:
	// queued until 150, preempted 300..500, completed at 900. Two action
	// spans cover 150..250 and 500..800. Another collective's events on
	// the same GPU and this collective's events on another GPU must be
	// ignored.
	rec := &trace.Recorder{}
	for _, e := range []trace.Event{
		{At: 120, GPU: 2, Coll: 7, Kind: trace.EvFetch},
		{At: 150, GPU: 2, Coll: 7, Kind: trace.EvExecute},
		{At: 300, GPU: 2, Coll: 7, Kind: trace.EvPreempt},
		{At: 310, GPU: 2, Coll: 8, Kind: trace.EvExecute},
		{At: 400, GPU: 3, Coll: 7, Kind: trace.EvExecute},
		{At: 500, GPU: 2, Coll: 7, Kind: trace.EvExecute},
		{At: 900, GPU: 2, Coll: 7, Kind: trace.EvComplete},
		{At: 1200, GPU: 2, Coll: 7, Kind: trace.EvExecute}, // a later run
	} {
		rec.Events = append(rec.Events, e)
	}
	rec.Actions = []trace.ActionSpan{
		{Start: 150, End: 250, GPU: 2, Coll: 7},
		{Start: 500, End: 800, GPU: 2, Coll: 7},
		{Start: 500, End: 700, GPU: 2, Coll: 8},
		{Start: 1200, End: 1300, GPU: 2, Coll: 7},
	}
	s := newDecomposer(rec).split(2, 7, sim.Time(100), sim.Time(1000))
	want := split{total: 900, queue: 50, preempted: 200, exec: 400, deliver: 100, residual: 150, ok: true}
	if s != want {
		t.Fatalf("split = %+v, want %+v", s, want)
	}
	if s.queue+s.preempted+s.exec+s.deliver+s.residual != s.total {
		t.Error("parts and residual must sum to the total")
	}
	if s := newDecomposer(rec).split(2, 9, 100, 1000); s.ok {
		t.Error("a launch with no daemon events must not decompose")
	}

	// The poller delivered at 100 while the daemon was still paying the
	// CQE write it stamps `complete` after (at 102): delivery is free and
	// the daemon's share ends at the delivery.
	rec.Events = append(rec.Events,
		trace.Event{At: 10, GPU: 1, Coll: 9, Kind: trace.EvExecute},
		trace.Event{At: 102, GPU: 1, Coll: 9, Kind: trace.EvComplete})
	rec.Actions = append(rec.Actions, trace.ActionSpan{Start: 10, End: 60, GPU: 1, Coll: 9})
	s = newDecomposer(rec).split(1, 9, 0, 100)
	if want := (split{total: 100, queue: 10, exec: 50, residual: 40, ok: true}); s != want {
		t.Errorf("split with completion after delivery = %+v, want %+v", s, want)
	}
}
