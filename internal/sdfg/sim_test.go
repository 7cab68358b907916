package sdfg

import "testing"

func TestSimulateChainAndFan(t *testing.T) {
	g := New()
	a := g.Add(Spec{Cost: 2})
	b := g.Add(Spec{Cost: 3}, a)
	g.Add(Spec{Cost: 4}, b)
	if got := Simulate(g, 4); got != 9 {
		t.Fatalf("chain makespan = %v, want 9", got)
	}

	fan := New()
	for i := 0; i < 8; i++ {
		fan.Add(Spec{Cost: 1})
	}
	if got := Simulate(fan, 2); got != 4 {
		t.Fatalf("fan on 2 workers = %v, want 4", got)
	}
	if got := Simulate(fan, 8); got != 1 {
		t.Fatalf("fan on 8 workers = %v, want 1", got)
	}
}

// TestSimulateOverlapsCommWithCompute: a comm node and an independent
// compute node occupy different engines, so they run concurrently even
// with a single worker — the §7.1.3 copy/compute overlap.
func TestSimulateOverlapsCommWithCompute(t *testing.T) {
	g := New()
	g.Add(Spec{Kind: Comm, Cost: 5})
	g.Add(Spec{Kind: Compute, Cost: 5})
	if got := Simulate(g, 1); got != 5 {
		t.Fatalf("comm+compute makespan = %v, want 5 (overlapped)", got)
	}
}

// TestSimulateComputeThenComm: 4 solves on 2 workers = 10, then the
// exchange on the comm engine 3, then the tile 2.
func TestSimulateComputeThenComm(t *testing.T) {
	g := New()
	var gf []NodeID
	for i := 0; i < 4; i++ {
		gf = append(gf, g.Add(Spec{Label: "gf", Cost: 5}))
	}
	ex := g.Add(Spec{Label: "exch", Kind: Comm, Cost: 3}, gf...)
	g.Add(Spec{Label: "tile", Cost: 2}, ex)
	if got := Simulate(g, 2); got != 15 {
		t.Errorf("makespan %g, want 15", got)
	}
}

// TestSimulateEdgeCases pins the degenerate inputs.
func TestSimulateEdgeCases(t *testing.T) {
	if got := Simulate(New(), 3); got != 0 {
		t.Errorf("empty graph: Simulate = %g", got)
	}

	g := New()
	g.Add(Spec{Label: "solo", Cost: 4.5})
	if got := Simulate(g, 1); got != 4.5 {
		t.Errorf("single node: Simulate = %g, want 4.5", got)
	}
	if got := Simulate(g, 0); got != 4.5 {
		t.Errorf("workers clamp: Simulate = %g, want 4.5", got)
	}

	// Workers beyond the node count change nothing.
	g2 := New()
	for i := 0; i < 3; i++ {
		g2.Add(Spec{Label: "p", Cost: float64(i + 1)})
	}
	if a, b := Simulate(g2, 3), Simulate(g2, 64); a != b || a != 3 {
		t.Errorf("independent nodes: Simulate(3)=%g Simulate(64)=%g, want 3", a, b)
	}
}
