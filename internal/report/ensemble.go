package report

import (
	"encoding/csv"
	"fmt"
	"io"
)

// Stat is the streaming summary of one scalar observable over an
// ensemble: Welford-reduced mean and unbiased sample variance
// (M2/(N−1); zero when N < 2), with the derived standard deviation and
// the 95% confidence half-width CI95 = 1.96·sqrt(Variance/N) on the
// mean under the normal approximation.
type Stat struct {
	N        int     `json:"n"`
	Mean     float64 `json:"mean"`
	Variance float64 `json:"variance"`
	Std      float64 `json:"std"`
	CI95     float64 `json:"ci95"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
}

// MemberRow is one disorder realization of an ensemble study: its index
// and derived seed, the headline observable, how its final run started,
// and (for service-side studies) the registry lineage — which run
// answered it and whether the result cache did.
type MemberRow struct {
	Index      int     `json:"index"`
	Seed       uint64  `json:"seed"`
	RunID      string  `json:"run_id,omitempty"`
	Current    float64 `json:"current"`
	Iterations int     `json:"iterations"`
	Converged  bool    `json:"converged"`
	CacheHit   bool    `json:"cache_hit,omitempty"`
	Start      string  `json:"start,omitempty"`
	WallNs     int64   `json:"wall_ns,omitempty"`
}

// The starts a member's final run can have (MemberRow.Start): cold,
// warm from the study's member 0, or cold again after a warm start
// that ended unconverged. A member that never ran has none.
const (
	StartCold      = "cold"
	StartWarm      = "warm"
	StartColdRetry = "cold_retry"
)

// DOSRow is the ensemble statistics of the density of states at one
// energy grid point (the per-slab LDOS summed over the device).
type DOSRow struct {
	Energy float64 `json:"energy"`
	DOS    Stat    `json:"dos"`
}

// Ensemble is the report of an N-realization disorder study: per-member
// rows plus the Welford-reduced statistics of the terminal current and
// the DOS spectrum. It is the report schema next to Run, shared by the
// in-process ensemble.Study driver and the qtd /v1/ensembles endpoint.
type Ensemble struct {
	Device    DeviceInfo `json:"device"`
	Members   int        `json:"members"`
	Converged int        `json:"converged"`
	BaseSeed  uint64     `json:"base_seed"`
	WallNs    int64      `json:"wall_ns,omitempty"`

	Current Stat `json:"current"`
	// DOS is the per-energy statistics over the members that finished
	// (DOSMembers of them).
	DOS        []DOSRow `json:"dos,omitempty"`
	DOSMembers int      `json:"dos_members,omitempty"`

	MemberRows []MemberRow `json:"member_rows"`
}

// Text renders the human summary: device header, current statistics,
// member table, and the DOS spectrum.
func (e *Ensemble) Text(w io.Writer) error {
	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	pf("device: Na=%d bnum=%d Norb=%d Nb<=%d | grid: Nkz=%d NE=%d Nω=%d | Vds=%.2f V, T=%g K\n",
		e.Device.Atoms, e.Device.Slabs, e.Device.Orbitals, e.Device.MaxNeighbours,
		e.Device.MomentumPoints, e.Device.EnergyPoints, e.Device.PhononModes,
		e.Device.Bias, e.Device.Temperature)
	pf("ensemble: %d realizations (base seed %d), %d converged (%.2fs)\n\n",
		e.Members, e.BaseSeed, e.Converged, float64(e.WallNs)/1e9)

	c := e.Current
	pf("current:  I = %.6g ± %.2g  (95%% CI, N=%d)\n", c.Mean, c.CI95, c.N)
	pf("          std %.3g, var %.3g, range [%.6g, %.6g]\n\n", c.Std, c.Variance, c.Min, c.Max)

	pf("members:\n")
	pf("  %-6s %-8s %-14s %-6s %-10s %s\n", "idx", "seed", "current", "iters", "converged", "source")
	for _, m := range e.MemberRows {
		src := m.Start
		switch {
		case m.CacheHit:
			src = "cache"
		case src == "":
			src = "solved"
		}
		if m.RunID != "" {
			src += " (" + m.RunID + ")"
		}
		pf("  %-6d %-8d %-14.6g %-6d %-10t %s\n", m.Index, m.Seed, m.Current, m.Iterations, m.Converged, src)
	}

	if len(e.DOS) > 0 {
		pf("\nDOS spectrum (over %d members):\n", e.DOSMembers)
		pf("  %-10s %-14s %-14s %-12s\n", "E [eV]", "mean", "ci95", "std")
		for _, row := range e.DOS {
			pf("  %-10.4f %-14.6g %-14.3g %-12.3g\n", row.Energy, row.DOS.Mean, row.DOS.CI95, row.DOS.Std)
		}
	}
	return err
}

// CSV renders two blocks: the member table and the DOS spectrum.
func (e *Ensemble) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write([]string{"index", "seed", "run_id", "current", "iterations",
		"converged", "cache_hit", "start", "wall_ns"}); err != nil {
		return err
	}
	for _, m := range e.MemberRows {
		if err := cw.Write([]string{itoa(m.Index), fmt.Sprintf("%d", m.Seed), m.RunID,
			ftoa(m.Current), itoa(m.Iterations), btoa(m.Converged), btoa(m.CacheHit),
			m.Start, itoa64(m.WallNs)}); err != nil {
			return err
		}
	}
	if err := cw.Write([]string{"energy", "dos_mean", "dos_variance", "dos_std",
		"dos_ci95", "dos_min", "dos_max", "n"}); err != nil {
		return err
	}
	for _, row := range e.DOS {
		s := row.DOS
		if err := cw.Write([]string{ftoa(row.Energy), ftoa(s.Mean), ftoa(s.Variance),
			ftoa(s.Std), ftoa(s.CI95), ftoa(s.Min), ftoa(s.Max), itoa(s.N)}); err != nil {
			return err
		}
	}
	return nil
}

func btoa(b bool) string {
	if b {
		return "true"
	}
	return "false"
}
