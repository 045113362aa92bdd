// Package mem implements the simulated memory subsystem: device, host,
// and page-locked (pinned) buffers with real backing data, the typed
// element/reduction operations collectives apply to that data, and the
// connector ring buffers used for inter-GPU transfers (Fig. 5 of the
// paper: send/recv buffers are local I/O, send/recv connectors carry
// chunks between peers).
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Space identifies where a buffer lives.
type Space int

const (
	// DeviceSpace is GPU global memory.
	DeviceSpace Space = iota
	// HostSpace is ordinary pageable host memory.
	HostSpace
	// PinnedSpace is page-locked host memory; allocating it performs
	// implicit GPU synchronization (Sec. 2.3 of the paper).
	PinnedSpace
)

func (s Space) String() string {
	switch s {
	case DeviceSpace:
		return "device"
	case HostSpace:
		return "host"
	case PinnedSpace:
		return "pinned"
	default:
		return fmt.Sprintf("Space(%d)", int(s))
	}
}

// DataType is the element type of a collective buffer.
type DataType int

const (
	Float32 DataType = iota
	Float64
	Int32
	Int64
)

// Size returns the element size in bytes.
func (t DataType) Size() int {
	switch t {
	case Float32, Int32:
		return 4
	case Float64, Int64:
		return 8
	default:
		panic(fmt.Sprintf("mem: unknown DataType(%d)", int(t)))
	}
}

func (t DataType) String() string {
	switch t {
	case Float32:
		return "float32"
	case Float64:
		return "float64"
	case Int32:
		return "int32"
	case Int64:
		return "int64"
	default:
		return fmt.Sprintf("DataType(%d)", int(t))
	}
}

// ReduceOp is the reduction applied by reducing collectives.
type ReduceOp int

const (
	Sum ReduceOp = iota
	Prod
	Max
	Min
)

func (o ReduceOp) String() string {
	switch o {
	case Sum:
		return "sum"
	case Prod:
		return "prod"
	case Max:
		return "max"
	case Min:
		return "min"
	default:
		return fmt.Sprintf("ReduceOp(%d)", int(o))
	}
}

// Buffer is a contiguous region with real backing bytes. Collectives in
// this repository actually move and reduce these bytes, so functional
// correctness (not just timing) is testable.
type Buffer struct {
	Space Space
	Type  DataType
	data  []byte
}

// NewBuffer allocates a buffer of count elements of type t in space s.
func NewBuffer(s Space, t DataType, count int) *Buffer {
	if count < 0 {
		panic("mem: negative element count")
	}
	return &Buffer{Space: s, Type: t, data: make([]byte, count*t.Size())}
}

// Len returns the number of elements.
func (b *Buffer) Len() int { return len(b.data) / b.Type.Size() }

// Bytes returns the raw backing bytes (shared, not a copy).
func (b *Buffer) Bytes() []byte { return b.data }

// Slice returns the byte range covering elements [lo, hi).
func (b *Buffer) Slice(lo, hi int) []byte {
	sz := b.Type.Size()
	return b.data[lo*sz : hi*sz]
}

// Float64At decodes element i as a float64 regardless of the element type.
func (b *Buffer) Float64At(i int) float64 {
	sz := b.Type.Size()
	return decode(b.Type, b.data[i*sz:(i+1)*sz])
}

// SetFloat64 encodes v into element i, converting to the element type.
func (b *Buffer) SetFloat64(i int, v float64) {
	sz := b.Type.Size()
	encode(b.Type, b.data[i*sz:(i+1)*sz], v)
}

// Fill sets every element to v.
func (b *Buffer) Fill(v float64) {
	for i := 0; i < b.Len(); i++ {
		b.SetFloat64(i, v)
	}
}

func decode(t DataType, raw []byte) float64 {
	switch t {
	case Float32:
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(raw)))
	case Float64:
		return math.Float64frombits(binary.LittleEndian.Uint64(raw))
	case Int32:
		return float64(int32(binary.LittleEndian.Uint32(raw)))
	case Int64:
		return float64(int64(binary.LittleEndian.Uint64(raw)))
	default:
		panic("mem: unknown type")
	}
}

func encode(t DataType, raw []byte, v float64) {
	switch t {
	case Float32:
		binary.LittleEndian.PutUint32(raw, math.Float32bits(float32(v)))
	case Float64:
		binary.LittleEndian.PutUint64(raw, math.Float64bits(v))
	case Int32:
		binary.LittleEndian.PutUint32(raw, uint32(int32(v)))
	case Int64:
		binary.LittleEndian.PutUint64(raw, uint64(int64(v)))
	default:
		panic("mem: unknown type")
	}
}

// Reduce applies op element-wise over src into dst (dst = dst op src).
// Both slices must hold whole elements of type t.
//
// It picks one kernel per (type, op) and runs it over whole words.
// Float results are what float64 arithmetic rounded back to the element
// type gives, bit for bit; when both operands of a Sum or Prod are NaN,
// either one may come back, quieted. Integer types use native
// two's-complement arithmetic: Sum and Prod wrap on overflow, as a GPU
// kernel does.
func Reduce(op ReduceOp, t DataType, dst, src []byte) {
	sz := t.Size()
	if len(dst) != len(src) || len(dst)%sz != 0 {
		panic(fmt.Sprintf("mem: Reduce size mismatch: dst=%d src=%d elem=%d", len(dst), len(src), sz))
	}
	switch t {
	case Float32:
		switch op {
		case Sum:
			each32(dst, src, func(d, s uint32) uint32 { return f32bits(f32(d) + f32(s)) })
		case Prod:
			each32(dst, src, func(d, s uint32) uint32 { return f32bits(f32(d) * f32(s)) })
		case Max:
			each32(dst, src, func(d, s uint32) uint32 {
				if f32(d) > f32(s) {
					return d
				}
				return quiet32(s)
			})
		case Min:
			each32(dst, src, func(d, s uint32) uint32 {
				if f32(d) < f32(s) {
					return d
				}
				return quiet32(s)
			})
		default:
			panic("mem: unknown op")
		}
	case Float64:
		switch op {
		case Sum:
			each64(dst, src, func(d, s uint64) uint64 { return f64bits(f64(d) + f64(s)) })
		case Prod:
			each64(dst, src, func(d, s uint64) uint64 { return f64bits(f64(d) * f64(s)) })
		case Max:
			each64(dst, src, func(d, s uint64) uint64 {
				if f64(d) > f64(s) {
					return d
				}
				return s
			})
		case Min:
			each64(dst, src, func(d, s uint64) uint64 {
				if f64(d) < f64(s) {
					return d
				}
				return s
			})
		default:
			panic("mem: unknown op")
		}
	case Int32:
		switch op {
		case Sum:
			each32(dst, src, func(d, s uint32) uint32 { return d + s })
		case Prod:
			each32(dst, src, func(d, s uint32) uint32 { return d * s })
		case Max:
			each32(dst, src, func(d, s uint32) uint32 { return uint32(max(int32(d), int32(s))) })
		case Min:
			each32(dst, src, func(d, s uint32) uint32 { return uint32(min(int32(d), int32(s))) })
		default:
			panic("mem: unknown op")
		}
	case Int64:
		switch op {
		case Sum:
			each64(dst, src, func(d, s uint64) uint64 { return d + s })
		case Prod:
			each64(dst, src, func(d, s uint64) uint64 { return d * s })
		case Max:
			each64(dst, src, func(d, s uint64) uint64 { return uint64(max(int64(d), int64(s))) })
		case Min:
			each64(dst, src, func(d, s uint64) uint64 { return uint64(min(int64(d), int64(s))) })
		default:
			panic("mem: unknown op")
		}
	default:
		panic("mem: unknown type")
	}
}

// each32 sets every 4-byte little-endian word of dst to f(dst word, src
// word). It is small enough to inline, so each call site's literal f
// inlines into a loop of its own. Indexing both slices by one counter
// keeps the loop to two loads, the operation, one store and two
// predictable bounds checks; advancing the slices instead costs a
// pointer mask and two more live lengths per word and runs slower.
func each32(dst, src []byte, f func(d, s uint32) uint32) {
	src = src[:len(dst)]
	for i := 0; i+4 <= len(dst); i += 4 {
		d, s := dst[i:i+4:i+4], src[i:i+4:i+4]
		binary.LittleEndian.PutUint32(d, f(binary.LittleEndian.Uint32(d), binary.LittleEndian.Uint32(s)))
	}
}

// each64 is each32 for 8-byte words.
func each64(dst, src []byte, f func(d, s uint64) uint64) {
	src = src[:len(dst)]
	for i := 0; i+8 <= len(dst); i += 8 {
		d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
		binary.LittleEndian.PutUint64(d, f(binary.LittleEndian.Uint64(d), binary.LittleEndian.Uint64(s)))
	}
}

func f32(w uint32) float32     { return math.Float32frombits(w) }
func f32bits(v float32) uint32 { return math.Float32bits(v) }
func f64(w uint64) float64     { return math.Float64frombits(w) }
func f64bits(v float64) uint64 { return math.Float64bits(v) }

// quiet32 sets the quiet bit of a float32 NaN and returns any other
// value unchanged. Widening a float32 to float64 quiets a signalling
// NaN, so a Max or Min result equals its float64 comparison's only if
// a NaN operand passed through comes out quiet.
func quiet32(w uint32) uint32 {
	if w&0x7fffffff > 0x7f800000 {
		return w | 1<<22
	}
	return w
}
