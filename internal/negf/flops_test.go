package negf

import (
	"testing"

	"repro/internal/bc"
	"repro/internal/device"
	"repro/internal/linalg"
)

// TestPointSolveFlopCountExact pins the work of one warm electron point
// on the device shape of the benchmark's GF-bound workload (64 atoms,
// 4 slabs, 4 orbitals: 64×64 blocks, coupling density ≈ 0.19): with both
// lead boundaries cached, everything linalg counts is the RGF recursion —
// Table 3's 8n³·(25(nb−1)+4) GEMM flops plus nb factorizations (8·⅔n³)
// and inverses (8n³). A coupling product that bypasses the counted
// kernels makes the measured flops-per-iteration understate this device.
func TestPointSolveFlopCountExact(t *testing.T) {
	p := device.TestParams(64, 4, 4)
	p.NE = 4
	p.Nomega = 2
	dev, err := device.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	ps := NewPointSolver(dev, bc.CacheBC)
	sh := NewShard(dev, [][2]int{{0, 1}}, nil)
	if err := ps.PrepareElectronBC(sh, 0); err != nil {
		t.Fatal(err)
	}
	h := dev.Hamiltonian(0)

	linalg.EnableFlopCounting(true)
	linalg.ResetFlops()
	_, err = ps.SolveElectronPoint(h, 0, 1)
	got := linalg.Flops()
	linalg.EnableFlopCounting(false)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := ps.BC.Stats(); hits != 2 || misses != 2 {
		t.Fatalf("point was not warm: boundary cache hits=%d misses=%d, want 2/2", hits, misses)
	}

	n := int64(p.ElBlockSize())
	nb := int64(p.Bnum)
	if n != 64 || nb != 4 {
		t.Fatalf("fixture drifted: %d blocks of %d, want 4 of 64", nb, n)
	}
	n3 := n * n * n
	lu := nb * (8*n3*2/3 + 8*n3)
	if want := 8*n3*(25*(nb-1)+4) + lu; got != want {
		t.Errorf("n=%d nb=%d: %d flops, want %d (%d GEMM products, want %d)",
			n, nb, got, want, (got-lu)/(8*n3), 25*(nb-1)+4)
	}
}
