// External test package: core imports trace (the recorder hook), so an
// in-package test importing core would be an import cycle.
package trace_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"dfccl/internal/core"
	"dfccl/internal/mem"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/trace"
)

// runTraced executes a small disordered DFCCL workload with a recorder
// attached and returns it.
func runTraced(t *testing.T) *trace.Recorder {
	t.Helper()
	rec := &trace.Recorder{}
	cfg := core.DefaultConfig()
	cfg.Tracer = rec
	cfg.Recorder = rec
	e := sim.NewEngine()
	e.MaxTime = sim.Time(60 * sim.Second)
	sys := core.NewSystem(e, topo.Server3090(2), cfg)
	for rank := 0; rank < 2; rank++ {
		rank := rank
		e.Spawn("app", func(p *sim.Process) {
			rc := sys.Init(p, rank)
			for c := 0; c < 2; c++ {
				if err := rc.RegisterAllReduce(c, 1024, mem.Float32, mem.Sum, []int{0, 1}, 0); err != nil {
					t.Errorf("register: %v", err)
					return
				}
			}
			order := []int{0, 1}
			if rank == 1 {
				order = []int{1, 0} // disorder forces preemptions
				// Arrive late so rank 0's daemon exhausts its spin
				// thresholds and must preempt.
				p.Sleep(2 * sim.Millisecond)
			}
			for _, c := range order {
				s := mem.NewBuffer(mem.DeviceSpace, mem.Float32, 1024)
				d := mem.NewBuffer(mem.DeviceSpace, mem.Float32, 1024)
				if err := rc.Run(p, c, s, d, nil); err != nil {
					t.Errorf("run: %v", err)
					return
				}
			}
			rc.WaitAll(p)
			rc.Destroy(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rec
}

func TestRecorderCapturesLifecycle(t *testing.T) {
	rec := runTraced(t)
	counts := rec.CountByKind()
	if counts[trace.EvStart] == 0 {
		t.Fatal("no daemon start events")
	}
	if counts[trace.EvFetch] != 4 { // 2 collectives × 2 GPUs
		t.Fatalf("fetch events = %d, want 4", counts[trace.EvFetch])
	}
	if counts[trace.EvComplete] != 4 {
		t.Fatalf("complete events = %d, want 4", counts[trace.EvComplete])
	}
	if counts[trace.EvExecute] < counts[trace.EvComplete] {
		t.Fatal("fewer execute events than completions")
	}
	if counts[trace.EvPreempt] == 0 {
		t.Fatal("disordered workload produced no preemption events")
	}
	// Events must be timestamp-ordered (recorded from one virtual clock).
	for i := 1; i < len(rec.Events); i++ {
		if rec.Events[i].At < rec.Events[i-1].At {
			t.Fatalf("events out of order at %d", i)
		}
	}
}

func TestSpansWellFormed(t *testing.T) {
	rec := runTraced(t)
	spans := rec.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans reconstructed")
	}
	completed := 0
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("negative span: %+v", s)
		}
		if s.Completed {
			completed++
		}
	}
	if completed != 4 {
		t.Fatalf("completed spans = %d, want 4", completed)
	}
}

func TestActionSpansRecorded(t *testing.T) {
	rec := runTraced(t)
	if len(rec.Actions) == 0 {
		t.Fatal("no action spans recorded")
	}
	for _, a := range rec.Actions {
		if a.End < a.Start {
			t.Fatalf("negative action span: %+v", a)
		}
		if a.GPU < 0 || a.GPU > 1 {
			t.Fatalf("action span on unknown GPU: %+v", a)
		}
	}
	// Byte reconciliation against the collectives' own accounting: the
	// 2-GPU ring all-reduce moves only SHM bytes.
	local, shm, rdma := rec.SendBytesBy()
	if local != 0 || rdma != 0 {
		t.Fatalf("single-node run recorded local=%d rdma=%d bytes", local, rdma)
	}
	if shm == 0 {
		t.Fatal("no SHM send bytes recorded")
	}
}

func TestChromeTraceExport(t *testing.T) {
	rec := runTraced(t)
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("empty trace")
	}
	phases := map[string]bool{}
	for _, e := range evs {
		for _, field := range []string{"name", "ph", "ts", "pid"} {
			if _, ok := e[field]; !ok {
				t.Fatalf("event missing %q: %v", field, e)
			}
		}
		phases[e["ph"].(string)] = true
	}
	if !phases["X"] || !phases["i"] {
		t.Fatalf("expected complete (X) and instant (i) events, got %v", phases)
	}
	if !phases["M"] {
		t.Fatalf("expected track metadata (M) events, got %v", phases)
	}
}

// TestChromeTraceDeterministic regenerates the export and requires
// byte-identical output — the documented stable sort at work.
func TestChromeTraceDeterministic(t *testing.T) {
	rec := runTraced(t)
	var a, b bytes.Buffer
	if err := rec.WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("repeated exports of the same recorder differ")
	}
}

// TestSortCanonicalOrder shuffles same-instant records and checks Sort
// restores the documented (time, GPU, coll, kind) order.
func TestSortCanonicalOrder(t *testing.T) {
	rec := &trace.Recorder{}
	rec.Record(10, 1, 5, trace.EvComplete)
	rec.Record(10, 0, 7, trace.EvFetch)
	rec.Record(10, 0, 3, trace.EvFetch)
	rec.Record(5, 9, 9, trace.EvStart)
	rec.RecordMark(trace.Mark{At: 2, Kind: trace.MarkAbort, Coll: 4})
	rec.RecordMark(trace.Mark{At: 2, Kind: trace.MarkAbort, Coll: 1})
	rec.RecordMark(trace.Mark{At: 2, Kind: trace.MarkKill, GPU: 3})
	rec.Sort()
	want := []trace.Event{
		{At: 5, GPU: 9, Coll: 9, Kind: trace.EvStart},
		{At: 10, GPU: 0, Coll: 3, Kind: trace.EvFetch},
		{At: 10, GPU: 0, Coll: 7, Kind: trace.EvFetch},
		{At: 10, GPU: 1, Coll: 5, Kind: trace.EvComplete},
	}
	for i, w := range want {
		if rec.Events[i] != w {
			t.Fatalf("Events[%d] = %+v, want %+v", i, rec.Events[i], w)
		}
	}
	if rec.Marks[0].Kind != trace.MarkKill {
		t.Fatalf("marks not sorted by kind at equal time: %+v", rec.Marks)
	}
	if rec.Marks[1].Coll != 1 || rec.Marks[2].Coll != 4 {
		t.Fatalf("abort marks not sorted by coll: %+v", rec.Marks)
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[trace.Kind]string{
		trace.EvFetch: "fetch", trace.EvExecute: "execute", trace.EvPreempt: "preempt",
		trace.EvComplete: "complete", trace.EvQuit: "quit", trace.EvStart: "start",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	for k, want := range map[trace.MarkKind]string{
		trace.MarkKill: "kill", trace.MarkAbort: "abort", trace.MarkReform: "reform",
		trace.MarkRevive: "revive", trace.MarkTunePick: "tune-pick",
	} {
		if k.String() != want {
			t.Fatalf("mark %d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	for k, want := range map[trace.Transport]string{
		trace.TransportLocal: "local", trace.TransportSHM: "shm", trace.TransportRDMA: "rdma",
	} {
		if k.String() != want {
			t.Fatalf("transport %d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}
