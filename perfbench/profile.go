package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// This file turns a runtime/pprof CPU profile into per-layer shares.
// It decodes just the parts of profile.proto it needs (samples, their
// location stacks, and function names) with a minimal protobuf reader,
// since the module has no third-party dependencies.

// stack is one profile sample: its function names from the innermost
// frame outwards (inlined frames included) and its sample count.
type stack struct {
	frames []string
	count  int64
}

// buckets in print order; every sample lands in exactly one.
var bucketNames = []string{
	"sim", "core", "prim", "mem", "fabric", "cluster", "cudasim", "ncclsim", "trace",
	"runtime.sched", "runtime.gc", "bench", "other",
}

// gcFrames are name prefixes of garbage-collector work: background and
// assist marking, sweeping, scavenging, and write-barrier flushes.
var gcFrames = []string{
	"runtime.gc", "runtime.GC", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.sweepone", "runtime.wbBufFlush",
}

// schedFrames are the scheduler and handoff functions: the sim engine
// hands control between processes over channels, so these measure what
// each virtual event costs in goroutine switches.
var schedFrames = map[string]bool{
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.park_m": true,
	"runtime.mcall": true, "runtime.gopark": true, "runtime.goready": true, "runtime.ready": true,
	"runtime.futex": true, "runtime.futexsleep": true, "runtime.futexwakeup": true,
	"runtime.notesleep": true, "runtime.notewakeup": true, "runtime.chansend": true,
	"runtime.chanrecv": true, "runtime.selectgo": true, "runtime.stopm": true, "runtime.startm": true,
	"runtime.wakep": true, "runtime.execute": true, "runtime.gogo": true, "runtime.goexit0": true,
	"runtime.usleep": true, "runtime.osyield": true, "runtime.runqsteal": true, "runtime.runqgrab": true,
	"runtime.goschedImpl": true, "runtime.newproc": true, "runtime.newproc1": true,
}

func isRuntime(f string) bool {
	return strings.HasPrefix(f, "runtime.") || strings.HasPrefix(f, "internal/") ||
		strings.HasPrefix(f, "sync.") || strings.HasPrefix(f, "sync/")
}

// bucketOf assigns one sample stack to a layer:
//  1. runtime.gc if any frame is garbage-collector work;
//  2. runtime.sched if the innermost run of runtime frames contains a
//     scheduler or channel-handoff function;
//  3. otherwise the innermost frame of this module decides: the
//     package name under dfccl/internal, "bench" for the benchmark's
//     own code and the profiler, "other" for the root facade. Frames of
//     the standard library (memmove, bytes.Equal, ...) are charged to
//     the caller that invoked them;
//  4. "other" if no frame decides.
func bucketOf(frames []string) string {
	for _, f := range frames {
		for _, p := range gcFrames {
			if strings.HasPrefix(f, p) {
				return "runtime.gc"
			}
		}
	}
	for _, f := range frames {
		if !isRuntime(f) {
			break
		}
		if schedFrames[f] {
			return "runtime.sched"
		}
	}
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "dfccl/internal/"):
			pkg := strings.TrimPrefix(f, "dfccl/internal/")
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, b := range bucketNames {
				if b == pkg {
					return pkg
				}
			}
			return "other"
		case strings.HasPrefix(f, "main.") || strings.HasPrefix(f, "runtime/pprof."):
			return "bench"
		case strings.HasPrefix(f, "dfccl."):
			return "other"
		}
	}
	return "other"
}

// shares buckets every sample and returns each bucket's share of the
// total sample count; the shares sum to 1 when there is any sample.
func shares(stacks []stack) (map[string]float64, int64) {
	counts := make(map[string]int64)
	var total int64
	for _, s := range stacks {
		counts[bucketOf(s.frames)] += s.count
		total += s.count
	}
	out := make(map[string]float64, len(bucketNames))
	for _, b := range bucketNames {
		out[b] = ratio(float64(counts[b]), float64(total))
	}
	return out, total
}

// profiler collects CPU-profile samples over one or more intervals.
type profiler struct {
	buf    bytes.Buffer
	stacks []stack
	err    error
}

func (p *profiler) start() {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil && p.err == nil {
		p.err = err
	}
}

func (p *profiler) stop() {
	pprof.StopCPUProfile()
	st, err := parseProfile(p.buf.Bytes())
	if err != nil && p.err == nil {
		p.err = err
	}
	p.stacks = append(p.stacks, st...)
}

// parseProfile decodes a gzipped pprof profile into sample stacks,
// using the first sample value (the sample count).
func parseProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var samples []sample
	locLines := make(map[uint64][]uint64) // location id -> function ids, innermost first
	funcName := make(map[uint64]int64)    // function id -> string index
	var strs []string
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			err := fields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendUints(s.locs, w, v, b)
				case 2:
					if vals := appendUints(nil, w, v, b); first && len(vals) > 0 {
						s.value, first = int64(vals[0]), false
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(n, w int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.value}
		for _, l := range s.locs {
			for _, fid := range locLines[l] {
				idx := funcName[fid]
				if idx < 0 || int(idx) >= len(strs) {
					return nil, errors.New("profile: function name out of range")
				}
				st.frames = append(st.frames, strs[idx])
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendUints appends a repeated integer field that may be packed
// (wire type 2) or not.
func appendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// fields walks a protobuf message, calling f with each field's number,
// wire type, and its integer value or length-delimited payload.
func fields(b []byte, f func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := f(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// cqShare is the share of samples with a completion-queue method (CQ
// Push or Drain, any variant) on the stack.
func cqShare(stacks []stack) float64 {
	var in, total int64
	for _, s := range stacks {
		total += s.count
		for _, f := range s.frames {
			if strings.HasPrefix(f, "dfccl/internal/core.(*") && strings.Contains(f, "CQ).") {
				in += s.count
				break
			}
		}
	}
	return ratio(float64(in), float64(total))
}
