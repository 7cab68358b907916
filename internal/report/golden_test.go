package report

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/qt"
	"repro/internal/sse"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// fixedTrace is a deterministic two-iteration trace in the unified
// schema, with every field populated.
func fixedTrace() []qt.IterStats {
	return []qt.IterStats{
		{
			Iter: 0, Current: 0.0686293798, Residual: 0,
			ElEnergyLoss: 1.06e-06, PhEnergyGain: 2.67e-06,
			SSE:      sse.Stats{MatMuls: 53136, Flops: 1.2e7, ScalarOps: 3.4e6, BytesMoved: 8.1e6},
			SSEBytes: 789504, ReduceBytes: 960, SigmaErr: 5.25e-04,
			WallNs: 62_000_000, ComputeNs: 41_000_000, CommNs: 9_000_000,
		},
		{
			Iter: 1, Current: 0.0686372562, Residual: 1.1475e-04,
			ElEnergyLoss: 1.59e-06, PhEnergyGain: 3.99e-06,
			SSE:      sse.Stats{MatMuls: 53136, Flops: 1.2e7, ScalarOps: 3.4e6, BytesMoved: 8.1e6},
			SSEBytes: 789504, ReduceBytes: 960, SigmaErr: 4.75e-04,
			WallNs: 58_000_000, ComputeNs: 40_000_000, CommNs: 8_000_000,
		},
	}
}

func fixedRun() *Run {
	return &Run{
		Device: DeviceInfo{
			Atoms: 12, Slabs: 3, Orbitals: 2, MaxNeighbours: 11,
			MomentumPoints: 3, EnergyPoints: 12, PhononModes: 3,
			Bias: 0.3, Temperature: 300,
		},
		Kernel: "dace", Ranks: 2, Schedule: "overlap", Plan: "overlap w=2",
		Converged: false, WallNs: 149_000_000,
		Trace: fixedTrace(),

		CurrentL: 0.0686372562, CurrentR: -0.0686372560,
		EnergyCurrentL: -0.00781947, PhononEnergyCurrentL: 3.33e-06,
		ElectronEnergyLoss: 1.59e-06, PhononEnergyGain: 3.99e-06,
		MaxTemperature: 301.5, HotSpot: 1,
		Profile: []SlabRow{
			{Slab: 0, Current: 0.08512, EnergyCurrent: -0.025488, PhononEnergy: -2.4735e-07, Temperature: 301.4},
			{Slab: 1, Current: 0.06745, EnergyCurrent: -0.0066699, PhononEnergy: 7.1507e-07, Temperature: 301.5},
			{Slab: 2, Temperature: 301.0},
		},
	}
}

func fixedEnsemble() *Ensemble {
	return &Ensemble{
		Device: DeviceInfo{
			Atoms: 12, Slabs: 3, Orbitals: 2, MaxNeighbours: 11,
			MomentumPoints: 3, EnergyPoints: 12, PhononModes: 3,
			Bias: 0.3, Temperature: 300,
		},
		Members: 4, Converged: 4, BaseSeed: 7, WallNs: 412_000_000,
		Current: Stat{
			N: 4, Mean: 0.0684210, Variance: 1.21e-08, Std: 1.1e-04,
			CI95: 1.078e-04, Min: 0.0683, Max: 0.06855,
		},
		DOS: []DOSRow{
			{Energy: -1.2, DOS: Stat{N: 3, Mean: 0.412, Variance: 4e-04, Std: 0.02, CI95: 0.0226, Min: 0.39, Max: 0.43}},
			{Energy: -1.1, DOS: Stat{N: 3, Mean: 0.455, Variance: 9e-04, Std: 0.03, CI95: 0.0339, Min: 0.42, Max: 0.48}},
		},
		DOSMembers: 3,
		MemberRows: []MemberRow{
			{Index: 0, Seed: 7, RunID: "run-000001", Current: 0.06830, Iterations: 9, Converged: true, Start: StartCold, WallNs: 120_000_000},
			{Index: 1, Seed: 8, RunID: "run-000002", Current: 0.06855, Iterations: 5, Converged: true, Start: StartWarm, WallNs: 80_000_000},
			{Index: 2, Seed: 9, RunID: "run-000003", Current: 0.06840, Iterations: 6, Converged: true, Start: StartColdRetry, WallNs: 92_000_000},
			{Index: 3, Seed: 7, RunID: "run-000001", Current: 0.06830, Iterations: 9, Converged: true, CacheHit: true, Start: StartWarm},
		},
	}
}

// TestGolden locks every encoder's byte-exact output across all report
// types and all three formats.
func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		rep  Encoder
	}{
		{"run", fixedRun()},
		{"ensemble", fixedEnsemble()},
	}
	for _, c := range cases {
		for _, f := range []Format{Text, JSON, CSV} {
			name := c.name + "_" + f.String()
			t.Run(name, func(t *testing.T) {
				var buf bytes.Buffer
				if err := Write(&buf, f, c.rep); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join("testdata", name+".golden")
				if *update {
					if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run `go test ./internal/report -update` to regenerate)", err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("%s output drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s",
						name, buf.String(), want)
				}
			})
		}
	}
}

func TestParseFormat(t *testing.T) {
	for _, s := range []string{"text", "json", "csv"} {
		if _, err := ParseFormat(s); err != nil {
			t.Errorf("ParseFormat(%q): %v", s, err)
		}
	}
	if _, err := ParseFormat("yaml"); err == nil {
		t.Error("ParseFormat must reject unknown formats")
	}
}
