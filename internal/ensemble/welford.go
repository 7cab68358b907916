package ensemble

import (
	"math"

	"repro/internal/device"
	"repro/internal/report"
)

// welford is Welford's online mean/variance accumulator: numerically
// stable single-pass moments. reduce feeds it the converged members in
// index order — Study.Run, the one study driver in-process and in qtd,
// calls reduce once, after the last member. stat() reports the unbiased
// sample variance M2/(N−1).
type welford struct {
	n        int
	mean, m2 float64
	min, max float64
}

func (w *welford) add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

func (w *welford) stat() report.Stat {
	s := report.Stat{N: w.n, Mean: w.mean, Min: w.min, Max: w.max}
	if w.n > 1 {
		s.Variance = w.m2 / float64(w.n-1)
		s.Std = math.Sqrt(s.Variance)
		// 95% normal-approximation confidence half-width on the mean.
		s.CI95 = 1.96 * math.Sqrt(s.Variance/float64(w.n))
	}
	return s
}

// reduce folds finished members into the report.Ensemble schema, in
// member-index order (deterministic regardless of completion order).
// dev supplies the structural header and the energy axis of the DOS
// spectrum — any realization's device works, since profiles never
// change shapes; the clean base device is fine too. Every member gets a
// row and counts in Members; only a converged member without an error
// contributes to the current and the DOS — an unconverged member's
// current is no realization's value.
func reduce(dev *device.Device, members []Member) *report.Ensemble {
	p := dev.P
	e := &report.Ensemble{
		Device:  report.NewDeviceInfo(dev),
		Members: len(members),
	}
	var cur welford
	dos := make([]welford, p.NE)
	for _, m := range members {
		e.MemberRows = append(e.MemberRows, m.Row())
		res := m.Result
		if m.Err != nil || res == nil || !res.Converged {
			continue
		}
		e.Converged++
		cur.add(res.Current)
		if obs := res.Observables; obs != nil {
			e.DOSMembers++
			for n := 0; n < p.NE; n++ {
				// Device DOS at E_n: the per-slab LDOS summed over slabs.
				sum := 0.0
				for _, slab := range obs.LDOS {
					sum += slab[n]
				}
				dos[n].add(sum)
			}
		}
	}
	e.Current = cur.stat()
	if e.DOSMembers > 0 {
		e.DOS = make([]report.DOSRow, p.NE)
		for n := 0; n < p.NE; n++ {
			e.DOS[n] = report.DOSRow{Energy: p.Energy(n), DOS: dos[n].stat()}
		}
	}
	return e
}
