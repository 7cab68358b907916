package sdfg

import (
	"strings"
	"testing"
)

func TestAddAndValidate(t *testing.T) {
	g := New()
	a := g.Add(Spec{Label: "a"})
	b := g.Add(Spec{Label: "b"}, a)
	c := g.Add(Spec{Label: "c"}, a, b)
	if g.Len() != 3 {
		t.Fatalf("Len = %d", g.Len())
	}
	if got := g.Node(c).Deps(); len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("deps of c = %v", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddRejectsForwardDep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on forward dependency")
		}
	}()
	g := New()
	g.Add(Spec{Label: "a"}, NodeID(5))
}

func TestValidateDetectsCycle(t *testing.T) {
	g := New()
	a := g.Add(Spec{Label: "a"})
	b := g.Add(Spec{Label: "b"}, a)
	// Hand-wire a back edge (unreachable through Add).
	g.nodes[a].deps = append(g.nodes[a].deps, b)
	g.nodes[b].succs = append(g.nodes[b].succs, a)
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("expected cycle error, got %v", err)
	}
}

// TestSimulateRanksOwnEngines: nodes compete only for their own rank's
// engines, so two ranks' chains run side by side even with one worker.
func TestSimulateRanksOwnEngines(t *testing.T) {
	g := New()
	gf0 := g.Add(Spec{Label: "gf0", Rank: 0, Cost: 10})
	gf1 := g.Add(Spec{Label: "gf1", Rank: 1, Cost: 1})
	g.Add(Spec{Label: "sse0", Rank: 0, Cost: 1}, gf0)
	g.Add(Spec{Label: "sse1", Rank: 1, Cost: 10}, gf1)
	if got := Simulate(g, 1); got != 11 {
		t.Fatalf("two-rank makespan = %v, want 11", got)
	}
}
