package main

import (
	"fmt"
	"math"

	"dfccl/internal/metrics"
)

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100): the
// smallest sample with at least p% of the samples at or below it. It
// always returns an observed sample, so virtual-time percentiles repeat
// exactly.
func percentile(xs []float64, p float64) float64 {
	s := metrics.Series{Samples: xs}
	return s.Percentile(p)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// beyond is the number of samples strictly after the nearest-rank
// p-th percentile's position in the sorted samples.
func beyond(n int, p float64) int {
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// checkTail enforces the reporting rule for tail percentiles: a
// percentile is only reported with at least ten samples beyond it.
func checkTail(name string, n int, p float64) error {
	if b := beyond(n, p); b < 10 {
		return fmt.Errorf("%s: p%g of %d samples has only %d beyond it (need 10)", name, p, n, b)
	}
	return nil
}

// busBytes is the NCCL-tests bus traffic of one collective over n
// ranks: an all-reduce of size bytes moves size·2(n−1)/n per rank, an
// all-gather (size = the gathered total) moves size·(n−1)/n.
func busBytes(allReduce bool, size, n int) float64 {
	f := float64(n-1) / float64(n)
	if allReduce {
		f *= 2
	}
	return float64(size) * f
}

// busBW is bus bandwidth in GB/s: bus bytes over a virtual span in ns.
func busBW(bus float64, spanNs int64) float64 {
	if spanNs <= 0 {
		return 0
	}
	return bus / float64(spanNs)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
