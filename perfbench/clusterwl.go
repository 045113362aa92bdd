package main

import (
	"fmt"
	"time"

	"dfccl/internal/cluster"
	"dfccl/internal/topo"
	"dfccl/internal/trace"
)

// cluster-poisson: an open loop of tenant jobs. Each unit of work is one
// Poisson trace of clusterJobs jobs (the default dp/moe/zero/hybrid mix,
// 2..8 ranks each) arriving at clusterRate jobs per virtual second onto
// two 8-GPU servers with a 2:1 oversubscribed fabric, admitted by the
// priority policy. At this rate the cluster is loaded: most traces drain
// in about the arrival span, but some collapse into a backlog whose
// sojourns reach tens to hundreds of milliseconds.

const (
	clusterJobs     = 100
	clusterRate     = 400
	clusterMachines = 2
	clusterMaxSize  = 8
	clusterOversub  = 2
	clusterWarmJobs = 20
)

// clusterTrace generates unit u's arrival trace from the run seed.
func clusterTrace(seed int64, u, jobs int) ([]cluster.JobSpec, error) {
	return cluster.Generate(cluster.GenConfig{
		Seed: seed*1_000_003 + int64(u), Jobs: jobs, Rate: clusterRate,
		MinSize: 2, MaxSize: clusterMaxSize,
	})
}

func runTrace(jobs []cluster.JobSpec, rec *trace.Recorder) (*cluster.Report, error) {
	return cluster.Run(cluster.Config{
		Cluster: topo.MultiNode3090(clusterMachines), Jobs: jobs,
		Policy: cluster.PriorityPolicy{}, Oversub: clusterOversub, Recorder: rec,
	})
}

// clusterResult is one cluster-poisson run.
type clusterResult struct {
	host              []hostSample
	reports           []*cluster.Report // the first minUnits traces
	attempted, failed int
	runErr            error
}

// jobFailed applies the per-job output check: a job fails unless it
// committed every iteration bit-identically to its solo reference.
func jobFailed(j *cluster.JobResult) bool {
	return j.Failed || !j.BitIdentical || j.Committed != j.Spec.Iterations
}

// clusterSetup generates the run's traces and serves one short warm-up
// trace, untimed; it returns the traces and the set-up seconds.
func clusterSetup(seed int64, units int) ([][]cluster.JobSpec, float64, error) {
	t0 := time.Now()
	traces := make([][]cluster.JobSpec, units)
	for u := range traces {
		var err error
		if traces[u], err = clusterTrace(seed, u, clusterJobs); err != nil {
			return nil, 0, err
		}
	}
	// The warm-up trace is the same for every seed, so set-up time
	// measures the same work on every run.
	warm, err := clusterTrace(0, -1, clusterWarmJobs)
	if err != nil {
		return nil, 0, err
	}
	rep, err := runTrace(warm, nil)
	if err == nil && !rep.Ok() {
		err = fmt.Errorf("warm-up trace failed: %s", rep.Err)
	}
	return traces, time.Since(t0).Seconds(), err
}

// runCluster serves minUnits traces, then more until seconds elapse
// (maxUnits caps them). Each trace is timed on the host; outputs are
// checked outside the timed span. When observe is set, each of the
// first minUnits traces runs with its own flight recorder, handed to
// observe with the trace's report, under prof.
func runCluster(traces [][]cluster.JobSpec, seed int64, minUnits, maxUnits int, seconds float64, prof *profiler, observe func(*cluster.Report, *trace.Recorder)) *clusterResult {
	res := &clusterResult{}
	hc := &hostClock{}
	start := time.Now()
	for u := 0; u < maxUnits; u++ {
		if u >= minUnits && time.Since(start).Seconds() >= seconds {
			break
		}
		var jobs []cluster.JobSpec
		if u < len(traces) {
			jobs = traces[u]
		} else {
			var err error
			if jobs, err = clusterTrace(seed, u, clusterJobs); err != nil {
				res.runErr = err
				break
			}
		}
		var rec *trace.Recorder
		if observe != nil && u < minUnits {
			rec = &trace.Recorder{}
			prof.start()
		}
		hc.start()
		rep, err := runTrace(jobs, rec)
		hc.stop()
		if rec != nil {
			prof.stop()
		}
		if err != nil {
			res.runErr = err
			res.attempted++
			res.failed++
			break
		}
		for i := range rep.Jobs {
			res.attempted++
			if jobFailed(&rep.Jobs[i]) {
				res.failed++
			}
		}
		if !rep.Ok() && res.runErr == nil {
			res.runErr = fmt.Errorf("trace %d: report not ok (hang=%v err=%q)", u, rep.Hang, rep.Err)
		}
		if u < minUnits {
			res.reports = append(res.reports, rep)
			if rec != nil {
				observe(rep, rec)
			}
		}
	}
	res.host = hc.samples
	return res
}
