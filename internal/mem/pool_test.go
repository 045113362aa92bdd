package mem

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"dfccl/internal/sim"
)

// pattern returns n bytes counting up from seed.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

// Recycling a consumed chunk must never disturb chunks still in flight,
// nor the chunks written after it: the recycled memory goes to exactly
// one of them.
func TestConnectorRecycleKeepsInFlightChunks(t *testing.T) {
	const n = 128 << 10
	e := sim.NewEngine()
	c := NewConnector("c", 4)
	a, b, cc, d := pattern(n, 1), pattern(n, 2), pattern(n, 3), pattern(n, 4)
	c.Write(e, a)
	c.Write(e, b)
	if got := c.Read(e); !bytes.Equal(got, a) {
		t.Fatal("chunk A corrupted before recycling")
	} else {
		Recycle(got)
	}
	c.Write(e, cc)
	c.Write(e, d)
	for _, want := range [][]byte{b, cc, d} {
		got := c.Read(e)
		if !bytes.Equal(got, want) {
			t.Fatalf("chunk starting %d corrupted: starts %d", want[0], got[0])
		}
		Recycle(got)
	}
}

// A drained connector's chunks go back to the pool; nothing a later
// writer deposits may show the drained bytes.
func TestConnectorDrainRecycles(t *testing.T) {
	e := sim.NewEngine()
	c := NewConnector("c", 2)
	c.Write(e, pattern(64, 1))
	c.Write(e, pattern(64, 2))
	c.Drain(e)
	if c.Pending() != 0 || !c.CanWrite() {
		t.Fatalf("drain left pending=%d", c.Pending())
	}
	want := pattern(64, 9)
	c.Write(e, want)
	if got := c.Read(e); !bytes.Equal(got, want) {
		t.Fatalf("chunk after drain starts %d, want %d", got[0], want[0])
	}
}

// Scratch reads exactly like a fresh NewBuffer, whoever dirtied the
// pooled bytes before.
func TestScratchBufferZeroedAfterRecycle(t *testing.T) {
	for _, count := range []int{1, 1000, 1024, 32 << 10} {
		s := NewScratchBuffer(DeviceSpace, Float32, count)
		s.Fill(7)
		Recycle(s.Bytes())
		for _, take := range []int{count, (count + 1) / 2} {
			s = NewScratchBuffer(DeviceSpace, Float32, take)
			if s.Len() != take || s.Space != DeviceSpace || s.Type != Float32 {
				t.Fatalf("scratch of %d: len %d space %v type %v", take, s.Len(), s.Space, s.Type)
			}
			for i, v := range s.Bytes() {
				if v != 0 {
					t.Fatalf("scratch of %d after recycling %d: byte %d = %d, want 0", take, count, i, v)
				}
			}
			s.Fill(7)
			Recycle(s.Bytes())
		}
	}
}

// A steady Write→Read→Recycle cycle moves a chunk without allocating.
func TestConnectorCycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items on purpose")
	}
	const n, iters = 128 << 10, 2000
	e := sim.NewEngine()
	c := NewConnector("c", 8)
	src := pattern(n, 5)
	cycle := func() { Recycle(c.Read(e)) }
	c.Write(e, src)
	cycle() // warm the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		c.Write(e, src)
		cycle()
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / iters; perOp >= 64 {
		t.Fatalf("Write→Read→Recycle of %d B allocates %d B/op, want < 64", n, perOp)
	}
}

// Engines on different goroutines share the pool; each must only ever
// read back what it wrote.
func TestPoolConcurrentConnectors(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := sim.NewEngine()
			c := NewConnector("c", 2)
			for i := range 200 {
				want := pattern(1+(i*37+g*1009)%5000, byte(g*64+i))
				c.Write(e, want)
				s := NewScratchBuffer(HostSpace, Int32, len(want))
				got := c.Read(e)
				if !bytes.Equal(got, want) {
					t.Errorf("goroutine %d iteration %d: chunk corrupted", g, i)
					return
				}
				for _, v := range s.Bytes() {
					if v != 0 {
						t.Errorf("goroutine %d iteration %d: scratch not zeroed", g, i)
						return
					}
				}
				copy(s.Bytes(), got)
				Recycle(got)
				Recycle(s.Bytes())
			}
		}()
	}
	wg.Wait()
}
