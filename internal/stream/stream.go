// Package stream is a discrete-event scheduler modelling the automatic
// copy/compute pipelining of §7.1.3: DaCe schedules independent SDFG nodes
// onto CUDA streams, overlapping host↔device copies with kernels. The GPU
// is modelled as one copy engine and one compute engine; a stream is a
// FIFO chain of tasks, and tasks from different streams may overlap across
// engines — exactly the CUDA semantics that produce Table 6's shape, where
// going from 1 stream (fully serial) to 32 streams (fully overlapped)
// recovers the copy time.
package stream

import (
	"sort"

	"repro/internal/sdfg"
)

// Task is one unit of GF work: an input copy, a kernel, an output copy.
type Task struct {
	CopyIn  float64 // seconds on the copy engine before compute
	Compute float64 // seconds on the compute engine
	CopyOut float64 // seconds on the copy engine after compute
}

// Makespan simulates executing tasks round-robin over `streams` streams
// and returns the total completion time.
//
// Engine model: the copy engine and the compute engine each execute one
// operation at a time; operations within a stream are ordered, and among
// every stream's next operation the one that can start earliest runs
// next (ties to the lowest stream). That is sdfg.Simulate on one rank
// with one worker — the comm engine is the copy engine, a stream is a
// dependency chain — so Makespan only lowers the task set onto a graph.
// Chains are added in ascending stream order, which makes Simulate's
// node-id tie-break the ascending-stream one.
func Makespan(tasks []Task, streams int) float64 {
	if streams < 1 {
		streams = 1
	}
	g := sdfg.New()
	for s := 0; s < streams; s++ {
		var prev []sdfg.NodeID
		for i := s; i < len(tasks); i += streams {
			t := tasks[i]
			for _, op := range []sdfg.Spec{
				{Kind: sdfg.Comm, Cost: t.CopyIn},
				{Kind: sdfg.Compute, Cost: t.Compute},
				{Kind: sdfg.Comm, Cost: t.CopyOut},
			} {
				if op.Cost > 0 { // a zero-duration op does not queue on its engine
					prev = []sdfg.NodeID{g.Add(op, prev...)}
				}
			}
		}
	}
	return sdfg.Simulate(g, 1)
}

// Table6Row is one column of the CUDA-stream sweep.
type Table6Row struct {
	Streams int
	TimeSec float64
	Speedup float64 // vs 1 stream
}

// GFTaskSet builds a synthetic electron-GF workload shaped like the
// paper's: n independent (kz, E) points whose copies are a small fraction
// of the compute (Table 6 recovers ~7.5% going 1 → 32 streams, so copies
// are ≈8% of the serial time).
func GFTaskSet(n int, computeSec, copyFraction float64) []Task {
	per := computeSec / float64(n)
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{
			CopyIn:  per * copyFraction * 0.6,
			Compute: per,
			CopyOut: per * copyFraction * 0.4,
		}
	}
	return tasks
}

// Sweep evaluates the makespan for each stream count, mirroring Table 6.
func Sweep(tasks []Task, streamCounts []int) []Table6Row {
	counts := append([]int(nil), streamCounts...)
	sort.Ints(counts)
	base := Makespan(tasks, 1)
	out := make([]Table6Row, 0, len(counts))
	for _, s := range counts {
		t := Makespan(tasks, s)
		out = append(out, Table6Row{Streams: s, TimeSec: t, Speedup: base / t})
	}
	return out
}
