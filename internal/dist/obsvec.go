package dist

import (
	"repro/internal/device"
	"repro/internal/negf"
	"repro/internal/sse"
)

// partialObs is one rank's additive share of an iteration — the payload
// of the per-iteration Allreduce: the observables accumulated over the
// rank's shard (negf's own accumulator), the tile kernel's counters, and
// four control words. Every reduced field is a plain sum over the rank's
// owned points, so the elementwise reduction of the packed vectors yields
// the global values.
type partialObs struct {
	negf.Observables
	sse sse.Stats
	// flag is the control word riding the reduction: each rank whose GF
	// solves errored this iteration adds 1, and rank 0 adds stopRideFlag
	// for a pending Progress cancellation.
	flag float64
	// sseB/redB carry each rank's measured off-rank SSE exchange and
	// reduction bytes, so every iteration gets its traffic totals
	// without the barriers counter snapshots would need; fbk carries the
	// rank's fp64-fallback segment count of the mixed-precision wire
	// encoder (zero under FP64).
	sseB, redB, fbk float64
}

// walk visits every reduced field in wire order — the single definition
// of the reduction vector, from which its length, pack and unpackObs all
// derive. A new reduced quantity is one more visit here (or, for an
// observable, in negf.Observables.Additive).
func (po *partialObs) walk(p device.Params, visit func(*float64)) {
	po.Additive(p, visit)
	// Counters cross as floats: the comm runtime's currency is complex128.
	for _, c := range []*int64{&po.sse.MatMuls, &po.sse.Flops, &po.sse.ScalarOps, &po.sse.BytesMoved} {
		f := float64(*c)
		visit(&f)
		*c = int64(f)
	}
	for _, v := range []*float64{&po.flag, &po.sseB, &po.redB, &po.fbk} {
		visit(v)
	}
}

// vecLen is the packed length for p: the number of fields walk visits.
func vecLen(p device.Params) int { return len(new(partialObs).pack(p)) }

// pack serializes the partial into the real parts of a complex vector,
// the currency of the comm runtime, in one exactly-sized allocation.
func (po *partialObs) pack(p device.Params) []complex128 {
	n := 0
	po.walk(p, func(*float64) { n++ })
	out := make([]complex128, 0, n)
	po.walk(p, func(v *float64) { out = append(out, complex(*v, 0)) })
	return out
}

// unpackObs deserializes a reduced vector back into the (now global)
// totals. LDOS, the phonon spectra and AtomTemperature are not on the
// wire and stay nil.
func unpackObs(v []complex128, p device.Params) *partialObs {
	po := &partialObs{}
	pos := 0
	po.walk(p, func(f *float64) {
		if pos < len(v) {
			*f = real(v[pos])
		}
		pos++
	})
	if pos != len(v) {
		panic("dist: observable vector length mismatch")
	}
	return po
}

// row is the telemetry row of iteration it read off the reduced totals;
// the caller adds what it measured itself (wall and task times).
func (po *partialObs) row(it int, residual, sigmaErr float64) IterStats {
	return IterStats{
		Iter: it, Current: po.CurrentL, Residual: residual,
		ElEnergyLoss: po.ElectronEnergyLoss, PhEnergyGain: po.PhononEnergyGain,
		SSE:      po.sse,
		SSEBytes: int64(po.sseB), ReduceBytes: int64(po.redB),
		SigmaErr:       sigmaErr,
		FallbackBlocks: int64(po.fbk),
	}
}
