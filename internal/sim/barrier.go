package sim

// Barrier is a reusable generation barrier for n simulated processes:
// each Wait parks until all n have arrived, then every waiter of that
// generation is released and the barrier resets for the next.
//
// A barrier can be poisoned. A process that observes a failure calls
// Poison, which releases every parked waiter with false, so nobody
// waits on a process that will never arrive; every later Wait returns
// false at once. Callers that never poison may ignore Wait's result.
type Barrier struct {
	n, arrived, gen int
	poisoned        bool
	cond            *Cond
}

// NewBarrier returns a barrier for n processes; name labels its
// condition variable in diagnostics.
func NewBarrier(name string, n int) *Barrier {
	return &Barrier{n: n, cond: NewCond(name)}
}

// Wait blocks until all n processes have arrived at the current
// generation. The last arriver broadcasts and returns without parking.
// Wait reports false when the barrier was poisoned before or while the
// process waited.
func (b *Barrier) Wait(p *Process) bool {
	if b.poisoned {
		return false
	}
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast(p.Engine())
		return true
	}
	for gen == b.gen && !b.poisoned {
		b.cond.Wait(p)
	}
	return !b.poisoned
}

// Poison marks the barrier failed and releases every parked waiter.
func (b *Barrier) Poison(e *Engine) {
	b.poisoned = true
	b.cond.Broadcast(e)
}
