// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (see DESIGN.md's per-experiment
// index). It is shared by the cmd/ tools and the repository's
// testing.B benchmarks, so numbers printed by both come from the same
// code paths.
package bench

import (
	"fmt"
	"math/rand"

	"dfccl/internal/mem"
)

// SizeSweep returns the Fig. 8-style buffer sweep in bytes.
func SizeSweep(minBytes, maxBytes int) []int {
	var out []int
	for s := minBytes; s <= maxBytes; s *= 2 {
		out = append(out, s)
	}
	return out
}

// HumanBytes formats a byte count the way NCCL-Tests does.
func HumanBytes(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dM", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dK", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// newSeededRNG builds a deterministic RNG for workload synthesis.
func newSeededRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// zeroBuf returns an empty buffer for timing-only collectives.
func zeroBuf() *mem.Buffer { return mem.NewBuffer(mem.DeviceSpace, mem.Float32, 0) }
