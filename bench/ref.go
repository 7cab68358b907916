package main

import (
	"runtime"
	"sync"
	"time"
)

// The host this benchmark was defined on changes speed under it: the
// same binary reads 4.1 s and 5.9 s per iv_sse_bound pass minutes apart,
// in regimes that last from seconds to minutes (shared 2-vCPU VM; guest
// steal stays under 3 %, so it is the neighbours' cache and sibling-thread
// pressure rather than descheduling). Ten runs spread over four minutes
// then differ by 20–25 % whatever the code does, which is wider than any
// bound the benchmark may set.
//
// So every pass also times a fixed reference kernel — owned by the
// harness, touching no code of the repository, busying every core the way
// the solver's worker pools do — between its solves, and the timed
// end-to-end metrics are reported in reference-normalised units:
//
//	normalised = measured × refNominal ÷ mean reference time of the run
//
// i.e. seconds as they would read on a host that runs the reference in
// refNominal. The raw wall times are printed beside them. An
// optimisation of the repository cannot move the reference, so it shows
// in the normalised number exactly as it would in the raw one.

// refNominal is the reference kernel's time on the defining host in its
// fast regime; it only fixes the scale of the normalised units.
const refNominal = 8 * time.Millisecond

const (
	refBurst = 8     // reference runs per sampling point (between solves, at phase barriers)
	refWords = 256   // complex128 per worker: L1-resident
	refSweep = 16000 // multiply-add sweeps over the array
)

var refSink complex128

// hostRef runs the reference kernel once — GOMAXPROCS goroutines, each a
// fixed count of complex multiply-adds over a small array — and returns
// its wall time.
func hostRef() time.Duration {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	sums := make([]complex128, workers)
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var a [refWords]complex128
			for i := range a {
				a[i] = complex(float64(i&15), 1)
			}
			var s complex128
			for r := 0; r < refSweep; r++ {
				for i := 0; i < refWords; i++ {
					s += a[i] * a[(i+r)&(refWords-1)]
				}
			}
			sums[w] = s
		}()
	}
	wg.Wait()
	d := time.Since(t0)
	for _, s := range sums {
		refSink += s
	}
	return d
}

// sampleRef appends n reference timings (in ms) to xs.
func sampleRef(xs []float64, n int) []float64 {
	for i := 0; i < n; i++ {
		xs = append(xs, ms(hostRef()))
	}
	return xs
}

// hostFactor is how much slower than nominal the host ran during the
// samples: the divisor that turns measured times into normalised ones.
// It is their mean, not their median: the reference flips between a fast
// and a slow mode within seconds, a solve integrates over both, and only
// the mean moves with the share of time spent in each.
func hostFactor(refMs []float64) float64 {
	if len(refMs) == 0 {
		return 1
	}
	var sum float64
	for _, x := range refMs {
		sum += x
	}
	return sum / float64(len(refMs)) / ms(refNominal)
}
