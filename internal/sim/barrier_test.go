package sim

import (
	"reflect"
	"testing"
)

// TestBarrierGenerations reuses one barrier across several generations:
// nobody passes generation g before all n have arrived at it, and the
// last arriver of each generation is the one that reports true without
// parking (it returns at its own arrival time).
func TestBarrierGenerations(t *testing.T) {
	const n, gens = 3, 4
	e := NewEngine()
	b := NewBarrier("test.barrier", n)
	var log []string
	for i := 0; i < n; i++ {
		e.Spawn("w", func(p *Process) {
			for g := 0; g < gens; g++ {
				// Staggered arrivals: process i arrives i µs into the generation.
				p.Sleep(Duration(i+1) * Microsecond)
				arrive := p.Now()
				if !b.Wait(p) {
					t.Errorf("proc %d gen %d: Wait = false on an unpoisoned barrier", i, g)
				}
				if p.Now() != arrive && i == n-1 {
					t.Errorf("gen %d: last arriver parked until %v (arrived %v)", g, p.Now(), arrive)
				}
				log = append(log, string(rune('a'+i))+string(rune('0'+g)))
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The last arriver (c) leaves first; the parked a and b follow in
	// wait order. Every generation completes before the next begins.
	var want []string
	for g := 0; g < gens; g++ {
		d := string(rune('0' + g))
		want = append(want, "c"+d, "a"+d, "b"+d)
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("release order %v, want %v", log, want)
	}
	// Each generation takes the slowest arrival: 3 µs.
	if got, want := e.Now(), Time(gens*3*Microsecond); got != want {
		t.Fatalf("finished at %v, want %v", got, want)
	}
}

// TestBarrierPoison parks n-1 processes and poisons the barrier: every
// parked waiter is released with false, and a Wait that arrives after
// the poison returns false at once instead of parking.
func TestBarrierPoison(t *testing.T) {
	const n = 4
	e := NewEngine()
	b := NewBarrier("test.barrier", n)
	results := make([]bool, n-1)
	released := make([]Time, n-1)
	for i := 0; i < n-1; i++ {
		results[i] = true
		e.Spawn("waiter", func(p *Process) {
			results[i] = b.Wait(p)
			released[i] = p.Now()
		})
	}
	var late bool
	var lateAt, lateDone Time
	e.Spawn("poisoner", func(p *Process) {
		p.Sleep(10 * Microsecond)
		b.Poison(p.Engine())
		p.Sleep(5 * Microsecond)
		lateAt = p.Now()
		late = b.Wait(p)
		lateDone = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v (a poisoned barrier must not strand waiters)", err)
	}
	for i := range results {
		if results[i] {
			t.Errorf("waiter %d: Wait = true after Poison", i)
		}
		if released[i] != Time(10*Microsecond) {
			t.Errorf("waiter %d released at %v, want at the poison (10µs)", i, released[i])
		}
	}
	if late {
		t.Error("Wait after Poison = true")
	}
	if lateDone != lateAt {
		t.Errorf("Wait after Poison parked from %v to %v", lateAt, lateDone)
	}
}
