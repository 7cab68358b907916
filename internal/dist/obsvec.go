package dist

import (
	"repro/internal/decomp"
	"repro/internal/device"
	"repro/internal/negf"
	"repro/internal/sse"
)

// partialObs is one rank's additive share of an iteration — the payload
// of the per-iteration Allreduce: the observables accumulated over the
// rank's shard (negf's own accumulator), the tile kernel's counters, four
// control words and, with the error probe on, the probe's words. Every
// reduced field is a plain sum over the rank's owned points, so the
// elementwise reduction of the packed vectors yields the global values.
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
	// cnt is the wire form of the sse counters, which cross as floats
	// (the comm runtime's currency is complex128).
	cnt [4]float64
	// probe holds four words per rank with the error probe on (nil
	// without): rank r writes its tile's ProbeDeviation — Σ≷ deviation
	// and reference, then Π≷ — into words 4r…4r+3 and leaves the rest
	// zero. The numbers are non-negative and x + 0 = x exactly, so the
	// sum hands every rank every rank's numbers bit for bit.
	probe []float64
}

// walk visits every reduced field in wire order — the single definition
// of the reduction vector, from which its length, pack and unpack all
// derive. A new reduced quantity is one more visit here (or, for an
// observable, in negf.Observables.Additive).
func (po *partialObs) walk(p device.Params, visit func(*float64)) {
	po.Additive(p, visit)
	for i, c := range []*int64{&po.sse.MatMuls, &po.sse.Flops, &po.sse.ScalarOps, &po.sse.BytesMoved} {
		po.cnt[i] = float64(*c)
		visit(&po.cnt[i])
		*c = int64(po.cnt[i])
	}
	for _, v := range []*float64{&po.flag, &po.sseB, &po.redB, &po.fbk} {
		visit(v)
	}
	for i := range po.probe {
		visit(&po.probe[i])
	}
}

// vecLen is the packed length for p without the probe: the number of
// fields walk visits.
func vecLen(p device.Params) int {
	n := 0
	new(partialObs).walk(p, func(*float64) { n++ })
	return n
}

// pack serializes the partial into the real parts of a complex vector,
// the currency of the comm runtime, reusing dst's storage; a dst too
// small for it is replaced by one exactly-sized allocation.
func (po *partialObs) pack(p device.Params, dst []complex128) []complex128 {
	n := 0
	po.walk(p, func(*float64) { n++ })
	if cap(dst) < n {
		dst = make([]complex128, 0, n)
	}
	dst = dst[:0]
	po.walk(p, func(v *float64) { dst = append(dst, complex(*v, 0)) })
	return dst
}

// unpack deserializes a reduced vector into po, which then holds the
// global totals. LDOS, the phonon spectra and AtomTemperature are not on
// the wire and are left as they are.
func (po *partialObs) unpack(v []complex128, p device.Params) {
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
}

// empty makes po the empty accumulator for p, in its own storage once it
// has any (negf's Reset allocates it the first time); the probe words
// keep theirs.
func (po *partialObs) empty(p device.Params) {
	if po.LDOS == nil {
		*po = partialObs{probe: po.probe}
		po.Reset(p)
		clear(po.probe)
		return
	}
	po.walk(p, func(v *float64) { *v = 0 })
	for _, grid := range [][][]float64{po.LDOS, po.PhononDOS, po.PhononOcc} {
		for _, row := range grid {
			clear(row)
		}
	}
}

// assign makes po a copy of src that shares no storage with it, reusing
// po's own: what a run keeps of an iteration outlives the slot the
// iteration ran in.
func (po *partialObs) assign(src *partialObs) {
	o, probe := po.Observables, po.probe
	*po = *src
	po.probe = append(probe[:0], src.probe...)
	po.SpectralCurrent = append(o.SpectralCurrent[:0], src.SpectralCurrent...)
	po.InterfaceCurrent = append(o.InterfaceCurrent[:0], src.InterfaceCurrent...)
	po.InterfaceEnergyCurrent = append(o.InterfaceEnergyCurrent[:0], src.InterfaceEnergyCurrent...)
	po.PhononInterfaceEnergy = append(o.PhononInterfaceEnergy[:0], src.PhononInterfaceEnergy...)
	po.DissipatedPower = append(o.DissipatedPower[:0], src.DissipatedPower...)
	po.AtomTemperature = append(o.AtomTemperature[:0], src.AtomTemperature...)
	po.LDOS = copyGrid(o.LDOS, src.LDOS)
	po.PhononDOS = copyGrid(o.PhononDOS, src.PhononDOS)
	po.PhononOcc = copyGrid(o.PhononOcc, src.PhononOcc)
}

// copyGrid copies src into dst's storage, resized as needed.
func copyGrid(dst, src [][]float64) [][]float64 {
	if src == nil {
		return nil
	}
	if len(dst) != len(src) {
		dst = make([][]float64, len(src))
	}
	for i, row := range src {
		dst[i] = append(dst[i][:0], row...)
	}
	return dst
}

// row is the telemetry row of iteration it read off the reduced totals;
// the caller adds what it measured itself (wall and task times).
func (po *partialObs) row(it int, residual float64) IterStats {
	return IterStats{
		Iter: it, Current: po.CurrentL, Residual: residual,
		ElEnergyLoss: po.ElectronEnergyLoss, PhEnergyGain: po.PhononEnergyGain,
		SSE:      po.sse,
		SSEBytes: int64(po.sseB), ReduceBytes: int64(po.redB),
		SigmaErr:       po.sigmaErr(),
		FallbackBlocks: int64(po.fbk),
	}
}

// setProbe writes rank r's tile probe numbers into its own four words.
func (po *partialObs) setProbe(r int, pl *decomp.DaCePlan) {
	dev, ref := pl.ProbeDeviation()
	copy(po.probe[4*r:], []float64{dev[0], ref[0], dev[1], ref[1]})
}

// sigmaErr folds the reduced probe words into the global relative Σ≷/Π≷
// deviation, 0 without the probe: per tensor class the largest absolute
// ∞-norm deviation and the largest reference norm over the ranks, and
// only then their ratio — a tile's Π≷ partial can cancel to near zero
// locally, so a local ratio would overstate the error. The worse class
// is reported.
func (po *partialObs) sigmaErr() float64 {
	var dev, ref [2]float64
	for w := 0; w < len(po.probe); w += 4 {
		for k := range dev {
			dev[k] = max(dev[k], po.probe[w+2*k])
			ref[k] = max(ref[k], po.probe[w+2*k+1])
		}
	}
	var worst float64
	for k := range dev {
		if ref[k] > 0 && dev[k]/ref[k] > worst {
			worst = dev[k] / ref[k]
		}
	}
	return worst
}
