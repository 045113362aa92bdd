package mem

import (
	"math/bits"
	"sync"
)

// The chunk pool recycles the byte slices that connector chunks and
// executor scratch buffers live in. Real connectors are fixed ring
// buffers in pre-registered memory, so moving a chunk costs one copy
// and no allocation; the pool gives the simulator the same cost
// without pinning per-connector slot memory that sits idle whenever
// nothing is in flight. It is one sync.Pool per power-of-two capacity
// class, shared by every connector and executor in the process, so it
// holds roughly what is actually in flight and the garbage collector
// drops what stays unused.
//
// Ownership: a slice taken from the pool belongs to its taker until it
// is handed to Recycle, after which the taker must not touch it.
var (
	classes [bits.UintSize]sync.Pool
	// holders recycles the *[]byte boxes the classes store, so a
	// steady Put/Get cycle allocates nothing.
	holders sync.Pool
)

// getBytes returns a slice of length n from the pool. Its contents are
// whatever its previous owner left there.
func getBytes(n int) []byte {
	if n == 0 {
		return nil
	}
	c := bits.Len(uint(n - 1))
	if h, ok := classes[c].Get().(*[]byte); ok {
		b := *h
		*h = nil
		holders.Put(h)
		return b[:n]
	}
	return make([]byte, n, 1<<c)
}

// Recycle returns a slice taken from the pool — a chunk from
// Connector.Read, or the bytes of a scratch buffer — for reuse. The
// caller must hold no other reference to it. Slices whose capacity is
// not a power of two did not come from the pool and are left to the
// garbage collector.
func Recycle(b []byte) {
	c := cap(b)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	h, _ := holders.Get().(*[]byte)
	if h == nil {
		h = new([]byte)
	}
	*h = b[:0]
	classes[bits.Len(uint(c-1))].Put(h)
}

// NewScratchBuffer returns a zeroed buffer of count elements whose
// bytes come from the pool; it reads exactly like NewBuffer's. Hand
// its Bytes to Recycle once nothing references the buffer.
func NewScratchBuffer(s Space, t DataType, count int) *Buffer {
	if count < 0 {
		panic("mem: negative element count")
	}
	b := getBytes(count * t.Size())
	clear(b)
	return &Buffer{Space: s, Type: t, data: b}
}
