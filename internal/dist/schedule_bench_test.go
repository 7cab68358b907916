package dist

import (
	"errors"
	"testing"

	"repro/internal/device"
	"repro/internal/negf"
)

// The schedule benchmarks: the same imbalanced workload (point counts
// not divisible by the world size, so ranks finish their GF shards at
// different times) through the window graph on one worker
// (SchedulePhases) and on pools of 2 and 4 at depths 1 (ScheduleOverlap),
// 2 and 3. Compare with
//
//	go test ./internal/dist -bench 'Schedule' -benchtime 3x
//
// On a host with idle cores the task graph's makespan comes in below the
// phase-barrier one: the fast ranks' exchange posts and collision
// partials hide behind the slow ranks' remaining solves instead of idling
// at the barrier, and the worker pool exploits the per-rank point
// parallelism the graph exposes. The benchmark's dist_schedules workload
// (bench/) times the same comparison end to end (dist.*_iter_ms_p50) and
// scores the cost model's prediction against it (plan.predict_err_pct).
func benchDevice(b *testing.B) *device.Device {
	b.Helper()
	p := device.TestParams(12, 3, 2)
	p.Nkz = 3
	p.NE = 14 // 42 pairs over 4 ranks: 10/11/10/11 — imbalanced on purpose
	p.Nomega = 3
	dev, err := device.Build(p)
	if err != nil {
		b.Fatal(err)
	}
	return dev
}

func benchSchedule(b *testing.B, sched Schedule, workers, depth int) {
	b.ReportAllocs()
	dev := benchDevice(b)
	opts := Options{Ranks: 4}
	opts.Schedule = sched
	opts.Workers = workers
	opts.PipelineDepth = depth
	opts.MaxIter = 3
	opts.Tol = 1e-300
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(dev, opts)
		if err != nil && !errors.Is(err, negf.ErrNotConverged) {
			b.Fatal(err)
		}
		var wall int64
		for _, it := range res.IterTrace {
			wall += it.WallNs
		}
		b.ReportMetric(float64(wall)/float64(len(res.IterTrace)), "ns/iter")
	}
}

func BenchmarkSchedulePhases(b *testing.B) { benchSchedule(b, SchedulePhases, 0, 0) }

// Window depth 1 vs 2 at equal pool size: depth 1 drains the graph at
// every iteration; depth 2 lets the next iteration's point solves start
// as soon as their mixed Σ is in, closing the
// cross-iteration bubble. Deeper windows only pay off when convergence is
// far away.
func BenchmarkScheduleWindowD1W2(b *testing.B) { benchSchedule(b, ScheduleOverlap, 2, 0) }
func BenchmarkScheduleWindowD2W2(b *testing.B) { benchSchedule(b, SchedulePipeline, 2, 2) }
func BenchmarkScheduleWindowD1W4(b *testing.B) { benchSchedule(b, ScheduleOverlap, 4, 0) }
func BenchmarkScheduleWindowD2W4(b *testing.B) { benchSchedule(b, SchedulePipeline, 4, 2) }
func BenchmarkScheduleWindowD3W4(b *testing.B) { benchSchedule(b, SchedulePipeline, 4, 3) }
