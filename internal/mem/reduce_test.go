package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// referenceReduce computes a reduction one element at a time through
// float64: decode both elements, combine, encode the result back. For
// the float types Reduce's kernels must match it bit for bit.
func referenceReduce(op ReduceOp, t DataType, dst, src []byte) {
	sz := t.Size()
	for i := 0; i < len(dst)/sz; i++ {
		d := decode(t, dst[i*sz:])
		s := decode(t, src[i*sz:])
		encode(t, dst[i*sz:], referenceApply(op, d, s))
	}
}

func referenceApply(op ReduceOp, a, b float64) float64 {
	switch op {
	case Sum:
		return a + b
	case Prod:
		return a * b
	case Max:
		if a > b {
			return a
		}
		return b
	case Min:
		if a < b {
			return a
		}
		return b
	default:
		panic("mem: unknown op")
	}
}

var allOps = []ReduceOp{Sum, Prod, Max, Min}

// Integer reductions use native arithmetic: exact beyond 2^53, and
// wrapping on overflow.
func TestReduceIntegers(t *testing.T) {
	const big = 1<<53 + 1 // not representable as a float64
	cases := []struct {
		t       DataType
		op      ReduceOp
		a, b    int64
		want    int64
		comment string
	}{
		{Int64, Sum, big, 0, big, "exact above 2^53"},
		{Int64, Sum, big, big, 2 * big, "exact above 2^53"},
		{Int64, Max, big, big - 1, big, "distinct above 2^53"},
		{Int64, Min, -big, -big + 1, -big, "distinct above 2^53"},
		{Int64, Sum, math.MaxInt64, 1, math.MinInt64, "wraps"},
		{Int64, Sum, math.MinInt64, -1, math.MaxInt64, "wraps"},
		{Int64, Prod, 1 << 32, 1 << 32, 0, "wraps"},
		{Int64, Prod, math.MaxInt64, 3, math.MaxInt64 - 2, "wraps"},
		{Int64, Prod, -3, 7, -21, "signed"},
		{Int32, Sum, math.MaxInt32, 1, math.MinInt32, "wraps"},
		{Int32, Sum, math.MinInt32, -1, math.MaxInt32, "wraps"},
		{Int32, Prod, 1 << 16, 1 << 16, 0, "wraps"},
		{Int32, Prod, 65535, 65537, -1, "wraps"},
		{Int32, Prod, -3, 7, -21, "signed"},
		{Int32, Max, -5, 3, 3, "signed"},
		{Int32, Min, -5, 3, -5, "signed"},
		{Int32, Max, math.MinInt32, math.MaxInt32, math.MaxInt32, "extremes"},
	}
	for _, c := range cases {
		sz := c.t.Size()
		dst, src := make([]byte, sz), make([]byte, sz)
		putInt(c.t, dst, c.a)
		putInt(c.t, src, c.b)
		Reduce(c.op, c.t, dst, src)
		if got := getInt(c.t, dst); got != c.want {
			t.Errorf("%v %v(%d, %d) = %d, want %d (%s)", c.t, c.op, c.a, c.b, got, c.want, c.comment)
		}
	}
}

func putInt(t DataType, raw []byte, v int64) {
	if t == Int32 {
		binary.LittleEndian.PutUint32(raw, uint32(int32(v)))
		return
	}
	binary.LittleEndian.PutUint64(raw, uint64(v))
}

func getInt(t DataType, raw []byte) int64 {
	if t == Int32 {
		return int64(int32(binary.LittleEndian.Uint32(raw)))
	}
	return int64(binary.LittleEndian.Uint64(raw))
}

// Special float32 bit patterns: ±0, ±Inf, the subnormal range's ends,
// the normal range's ends, quiet and signalling NaNs of both signs.
var specials32 = []uint32{
	0x00000000, 0x80000000, 0x7f800000, 0xff800000,
	0x00000001, 0x80000001, 0x007fffff, 0x807fffff,
	0x00800000, 0x80800000, 0x7f7fffff, 0xff7fffff,
	0x3f800000, 0xbf800000,
	0x7fc00000, 0xffc00000, 0x7fc00001, 0x7fffffff,
	0x7f800001, 0xff800001, 0x7fa00000, 0x7fbfffff,
}

// Special float64 bit patterns, as specials32.
var specials64 = []uint64{
	0x0000000000000000, 0x8000000000000000, 0x7ff0000000000000, 0xfff0000000000000,
	0x0000000000000001, 0x8000000000000001, 0x000fffffffffffff, 0x800fffffffffffff,
	0x0010000000000000, 0x8010000000000000, 0x7fefffffffffffff, 0xffefffffffffffff,
	0x3ff0000000000000, 0xbff0000000000000,
	0x7ff8000000000000, 0xfff8000000000000, 0x7ff8000000000001, 0x7fffffffffffffff,
	0x7ff0000000000001, 0xfff0000000000001, 0x7ff4000000000000, 0x7ff7ffffffffffff,
}

// randomFloatBits fills n elements of type t: a quarter special
// patterns, a quarter values near 1 (so Sum and Prod round rather than
// overflow), the rest uniformly random bits.
func randomFloatBits(r *rand.Rand, t DataType, n int) []byte {
	sz := t.Size()
	out := make([]byte, n*sz)
	for i := 0; i < n; i++ {
		raw := out[i*sz : (i+1)*sz]
		k := r.IntN(4)
		switch {
		case t == Float32 && k == 0:
			binary.LittleEndian.PutUint32(raw, specials32[r.IntN(len(specials32))])
		case t == Float32 && k == 1:
			binary.LittleEndian.PutUint32(raw, math.Float32bits(float32(r.NormFloat64())))
		case t == Float32:
			binary.LittleEndian.PutUint32(raw, r.Uint32())
		case k == 0:
			binary.LittleEndian.PutUint64(raw, specials64[r.IntN(len(specials64))])
		case k == 1:
			binary.LittleEndian.PutUint64(raw, math.Float64bits(r.NormFloat64()))
		default:
			binary.LittleEndian.PutUint64(raw, r.Uint64())
		}
	}
	return out
}

// The float kernels are bit-identical to referenceReduce over 2^20
// random and special bit patterns per type, NaN payloads included (up
// to the one choice firstMismatch allows), on whole buffers and on
// odd-length sub-slices at odd offsets, and they never write outside
// the slice they are given.
func TestReduceFloatBitIdentity(t *testing.T) {
	const n = 1 << 20
	r := rand.New(rand.NewPCG(1, 2))
	for _, dt := range []DataType{Float32, Float64} {
		sz := dt.Size()
		dst0 := randomFloatBits(r, dt, n)
		src := randomFloatBits(r, dt, n)
		for _, op := range allOps {
			want := bytes.Clone(dst0)
			referenceReduce(op, dt, want, src)
			got := bytes.Clone(dst0)
			Reduce(op, dt, got, src)
			if i := firstMismatch(dt, op, dst0, src, got, want); i >= 0 {
				t.Fatalf("%v %v: elem %d: %v op %v = %x, want %x", dt, op, i,
					dst0[i*sz:(i+1)*sz], src[i*sz:(i+1)*sz], got[i*sz:(i+1)*sz], want[i*sz:(i+1)*sz])
			}
			for _, w := range []struct{ off, len int }{{0, 1}, {1, 1}, {3, 7}, {5, 1023}, {n - 9, 9}, {1, n - 2}} {
				lo, hi := w.off*sz, (w.off+w.len)*sz
				want := bytes.Clone(dst0)
				referenceReduce(op, dt, want[lo:hi], src[lo:hi])
				got := bytes.Clone(dst0)
				Reduce(op, dt, got[lo:hi], src[lo:hi])
				if i := firstMismatch(dt, op, dst0, src, got, want); i >= 0 {
					t.Fatalf("%v %v on elems [%d,%d): elem %d = %x, want %x", dt, op, w.off, w.off+w.len, i,
						got[i*sz:(i+1)*sz], want[i*sz:(i+1)*sz])
				}
			}
		}
	}
}

// firstMismatch returns the index of the first element where got, the
// kernel's result for dst op src, differs from want, the reference's,
// or -1. One difference is allowed: when both operands of Sum or Prod
// are NaN, which one the hardware passes through depends on the
// register order the compiler picks, and that differs between builds
// (it does under -race) for the reference and the kernel alike; the
// result must then be either operand, quieted.
func firstMismatch(dt DataType, op ReduceOp, dst, src, got, want []byte) int {
	if bytes.Equal(got, want) {
		return -1
	}
	sz := dt.Size()
	for i := 0; i < len(got)/sz; i++ {
		g, w := got[i*sz:(i+1)*sz], want[i*sz:(i+1)*sz]
		if bytes.Equal(g, w) {
			continue
		}
		d, s := dst[i*sz:(i+1)*sz], src[i*sz:(i+1)*sz]
		bothNaN := math.IsNaN(decode(dt, d)) && math.IsNaN(decode(dt, s))
		if (op == Sum || op == Prod) && bothNaN && (bytes.Equal(g, quieted(dt, d)) || bytes.Equal(g, quieted(dt, s))) {
			continue
		}
		return i
	}
	return -1
}

// quieted returns the NaN in raw with its quiet bit set.
func quieted(dt DataType, raw []byte) []byte {
	q := bytes.Clone(raw)
	if dt == Float32 {
		binary.LittleEndian.PutUint32(q, binary.LittleEndian.Uint32(q)|1<<22)
	} else {
		binary.LittleEndian.PutUint64(q, binary.LittleEndian.Uint64(q)|1<<51)
	}
	return q
}

// BenchmarkReduce measures each kernel on 1 MiB operands. Both
// operands hold ones, so Sum grows through normal values and Prod
// stays put: no subnormal slow paths.
func BenchmarkReduce(b *testing.B) {
	const size = 1 << 20
	for _, dt := range []DataType{Float32, Float64, Int32, Int64} {
		for _, op := range allOps {
			b.Run(fmt.Sprintf("%v/%v", dt, op), func(b *testing.B) {
				dst := NewBuffer(DeviceSpace, dt, size/dt.Size())
				src := NewBuffer(DeviceSpace, dt, size/dt.Size())
				dst.Fill(1)
				src.Fill(1)
				b.SetBytes(size)
				for b.Loop() {
					Reduce(op, dt, dst.Bytes(), src.Bytes())
				}
			})
		}
	}
}
