package report

import (
	"cmp"
	"encoding/csv"
	"fmt"
	"io"
	"math"

	"repro/internal/device"
	"repro/internal/qt"
)

// DeviceInfo is the structural header of a solver run.
type DeviceInfo struct {
	Atoms          int     `json:"atoms"`
	Slabs          int     `json:"slabs"`
	Orbitals       int     `json:"orbitals"`
	MaxNeighbours  int     `json:"max_neighbours"`
	MomentumPoints int     `json:"momentum_points"`
	EnergyPoints   int     `json:"energy_points"`
	PhononModes    int     `json:"phonon_modes"`
	Bias           float64 `json:"bias"`
	Temperature    float64 `json:"temperature"`
}

// NewDeviceInfo extracts the structural header of a built device — the
// shared opening block of the Run and Ensemble reports.
func NewDeviceInfo(dev *device.Device) DeviceInfo {
	p := dev.P
	return DeviceInfo{
		Atoms: p.Na, Slabs: p.Bnum, Orbitals: p.Norb, MaxNeighbours: dev.MaxNb(),
		MomentumPoints: p.Nkz, EnergyPoints: p.NE, PhononModes: p.Nomega,
		Bias: p.Vds, Temperature: p.TC,
	}
}

// SlabRow is the transport-direction profile of one slab.
type SlabRow struct {
	Slab          int     `json:"slab"`
	Current       float64 `json:"current"`        // I(el) through the left interface
	EnergyCurrent float64 `json:"energy_current"` // JE(el)
	PhononEnergy  float64 `json:"phonon_energy"`  // JQ(ph)
	Temperature   float64 `json:"temperature_k"`
}

// Run is the report of one facade solve — the structured core of the
// former qtsim output, keyed on the unified telemetry schema.
type Run struct {
	Device   DeviceInfo `json:"device"`
	Kernel   string     `json:"kernel"`
	Ranks    int        `json:"ranks"` // 0 = sequential
	Schedule string     `json:"schedule,omitempty"`
	// Plan is the resolved execution plan (Simulation.PlanString), e.g.
	// "pipeline w=2 d=2 [auto]" — schedule, workers, pipeline depth and
	// the [auto] marker when the plan came from the cost-model autotuner.
	// Empty for sequential runs.
	Plan      string         `json:"plan,omitempty"`
	Converged bool           `json:"converged"`
	WallNs    int64          `json:"wall_ns"`
	Trace     []qt.IterStats `json:"trace"`

	CurrentL             float64 `json:"current_l"`
	CurrentR             float64 `json:"current_r"`
	EnergyCurrentL       float64 `json:"energy_current_l"`
	PhononEnergyCurrentL float64 `json:"phonon_energy_current_l"`
	ElectronEnergyLoss   float64 `json:"electron_energy_loss"`
	PhononEnergyGain     float64 `json:"phonon_energy_gain"`
	MaxTemperature       float64 `json:"max_temperature"`
	HotSpot              int     `json:"hot_spot"`

	Profile []SlabRow `json:"profile"`
}

// Text renders the human report: convergence trace, contact currents,
// energy balance, and the transport-direction profile.
func (r *Run) Text(w io.Writer) error {
	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	solver := "sequential"
	if r.Ranks > 0 {
		// The resolved plan subsumes the bare schedule name when known.
		label := r.Schedule
		if r.Plan != "" {
			label = r.Plan
		}
		solver = fmt.Sprintf("distributed P=%d (%s)", r.Ranks, label)
	}
	pf("device: Na=%d bnum=%d Norb=%d Nb<=%d | grid: Nkz=%d NE=%d Nω=%d | Vds=%.2f V, T=%g K\n",
		r.Device.Atoms, r.Device.Slabs, r.Device.Orbitals, r.Device.MaxNeighbours,
		r.Device.MomentumPoints, r.Device.EnergyPoints, r.Device.PhononModes,
		r.Device.Bias, r.Device.Temperature)
	pf("solver: %s, kernel: %s\n\n", solver, r.Kernel)
	if r.Converged {
		pf("converged in %d iterations (%.2fs)\n", len(r.Trace), float64(r.WallNs)/1e9)
	} else {
		pf("NOT converged after %d iterations (%.2fs)\n", len(r.Trace), float64(r.WallNs)/1e9)
	}

	pf("\nconvergence trace (current, relative change):\n")
	for _, it := range r.Trace {
		pf("  iter %2d: I = %.8g   Δ = %.2e   (SSE matmuls %d", it.Iter+1, it.Current, it.Residual, it.SSE.MatMuls)
		if it.SSEBytes > 0 {
			pf(", exchange %s", fmtBytes(it.SSEBytes))
		}
		if it.SigmaErr > 0 {
			pf(", Σ qerr %.1e", it.SigmaErr)
		}
		pf(")\n")
	}

	balance := 0.0
	if r.CurrentL != 0 {
		balance = math.Abs(r.CurrentL+r.CurrentR) / math.Abs(r.CurrentL)
	}
	pf("\ncontact currents:   IL = %.6g, IR = %.6g  (balance %.1e)\n", r.CurrentL, r.CurrentR, balance)
	pf("energy currents:    source %.6g (electron), %.6g (phonon)\n", r.EnergyCurrentL, r.PhononEnergyCurrentL)
	pf("energy balance:     electron loss %.6g vs phonon gain %.6g\n", r.ElectronEnergyLoss, r.PhononEnergyGain)
	pf("hot spot:           %.1f K at slab %d\n", r.MaxTemperature, r.HotSpot)

	pf("\nprofile along transport direction:\n")
	pf("  %-6s %-12s %-12s %-12s %-12s\n", "slab", "I(el)", "JE(el)", "JQ(ph)", "T [K]")
	for _, row := range r.Profile {
		ic, je, jq := "-", "-", "-"
		if row.Slab < len(r.Profile)-1 {
			ic = fmt.Sprintf("%.5g", row.Current)
			je = fmt.Sprintf("%.5g", row.EnergyCurrent)
			jq = fmt.Sprintf("%.5g", row.PhononEnergy)
		}
		pf("  %-6d %-12s %-12s %-12s %-12.1f\n", row.Slab, ic, je, jq, row.Temperature)
	}
	return err
}

// CSV renders two blocks: the per-iteration trace and the slab profile.
func (r *Run) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write([]string{"iter", "current", "residual", "el_energy_loss",
		"ph_energy_gain", "sse_matmuls", "sse_bytes", "reduce_bytes", "sigma_err",
		"wall_ns", "compute_ns", "comm_ns"}); err != nil {
		return err
	}
	for _, it := range r.Trace {
		if err := cw.Write([]string{itoa(it.Iter), ftoa(it.Current), ftoa(it.Residual),
			ftoa(it.ElEnergyLoss), ftoa(it.PhEnergyGain), itoa64(it.SSE.MatMuls),
			itoa64(it.SSEBytes), itoa64(it.ReduceBytes), ftoa(it.SigmaErr),
			itoa64(it.WallNs), itoa64(it.ComputeNs), itoa64(it.CommNs)}); err != nil {
			return err
		}
	}
	if err := cw.Write([]string{"slab", "current", "energy_current", "phonon_energy", "temperature_k"}); err != nil {
		return err
	}
	for _, row := range r.Profile {
		if err := cw.Write([]string{itoa(row.Slab), ftoa(row.Current), ftoa(row.EnergyCurrent),
			ftoa(row.PhononEnergy), ftoa(row.Temperature)}); err != nil {
			return err
		}
	}
	return nil
}

// NewRun assembles the report of a finished facade run. The kernel and
// schedule labels are the resolved configuration's, defaults spelled out.
func NewRun(sim *qt.Simulation, res *qt.Result, wallNs int64) *Run {
	p := sim.Device.P
	cfg := sim.Config()
	r := &Run{
		Device:    NewDeviceInfo(sim.Device),
		Kernel:    cmp.Or(cfg.Precision, cfg.Kernel, qt.DataCentric.String()),
		Ranks:     cfg.Ranks,
		Plan:      sim.PlanString(),
		Converged: res.Converged,
		WallNs:    wallNs,
		Trace:     res.Trace,

		MaxTemperature: res.MaxTemperature,
		HotSpot:        res.HotSpot,
	}
	if cfg.Ranks > 0 {
		r.Schedule = cmp.Or(cfg.Schedule, qt.Phases.String())
	}
	obs := res.Observables
	if obs == nil {
		return r
	}
	r.CurrentL, r.CurrentR = obs.CurrentL, obs.CurrentR
	r.EnergyCurrentL = obs.EnergyCurrentL
	r.PhononEnergyCurrentL = obs.PhononEnergyCurrentL
	r.ElectronEnergyLoss = obs.ElectronEnergyLoss
	r.PhononEnergyGain = obs.PhononEnergyGain
	temps := obs.SlabTemperature(sim.Device)
	for i := 0; i < p.Bnum; i++ {
		row := SlabRow{Slab: i, Temperature: temps[i]}
		if i < len(obs.InterfaceCurrent) {
			row.Current = obs.InterfaceCurrent[i]
			row.EnergyCurrent = obs.InterfaceEnergyCurrent[i]
			row.PhononEnergy = obs.PhononInterfaceEnergy[i]
		}
		r.Profile = append(r.Profile, row)
	}
	return r
}
