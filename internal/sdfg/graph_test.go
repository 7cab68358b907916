package sdfg

import (
	"fmt"
	"slices"
	"testing"
)

func TestAddRecordsDeps(t *testing.T) {
	g := New()
	a := g.Add(Spec{Label: "a"})
	b := g.Add(Spec{Label: "b"}, a)
	c := g.Add(Spec{Label: "c"}, a, b)
	if g.Len() != 3 {
		t.Fatalf("Len = %d", g.Len())
	}
	if got := g.nodes[c].deps; len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("deps of c = %v", got)
	}
	if got := g.nodes[a].succs; len(got) != 2 || got[0] != b || got[1] != c {
		t.Fatalf("succs of a = %v", got)
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

// TestAddDerivesEdges: each row adds its nodes in order — their declared
// reads and writes of containers 0 and 1 plus explicit deps — and lists
// every node's dependencies as Add recorded them, each once.
func TestAddDerivesEdges(t *testing.T) {
	type node struct {
		reads, writes []Container
		deps          []NodeID
	}
	for _, tc := range []struct {
		name  string
		nodes []node
		want  [][]NodeID
	}{
		{"read after write", []node{
			{writes: []Container{0}},
			{reads: []Container{0}},
		}, [][]NodeID{nil, {0}}},
		{"write after write", []node{
			{writes: []Container{0}},
			{writes: []Container{0}},
		}, [][]NodeID{nil, {0}}},
		{"write after read", []node{
			{writes: []Container{0}},
			{reads: []Container{0}},
			{reads: []Container{0}},
			{writes: []Container{0}},
		}, [][]NodeID{nil, {0}, {0}, {0, 1, 2}}},
		{"a write ends the readers", []node{
			{reads: []Container{0}},
			{writes: []Container{0}},
			{writes: []Container{0}},
		}, [][]NodeID{nil, {0}, {1}}},
		{"read of a never-written container", []node{
			{reads: []Container{1}},
			{reads: []Container{1}},
		}, [][]NodeID{nil, nil}},
		{"update in place", []node{
			{writes: []Container{0}},
			{reads: []Container{0}},
			{reads: []Container{0}, writes: []Container{0}},
			{reads: []Container{0}},
		}, [][]NodeID{nil, {0}, {0, 1}, {2}}},
		{"one edge per writer, however many reads", []node{
			{writes: []Container{0, 1}},
			{reads: []Container{0, 1, 0}},
		}, [][]NodeID{nil, {0}}},
		{"explicit deps merged with derived", []node{
			{writes: []Container{0}},
			{},
			{reads: []Container{0}, deps: []NodeID{1, 0}},
		}, [][]NodeID{nil, nil, {1, 0}}},
		{"unrelated containers stay unordered", []node{
			{writes: []Container{0}},
			{writes: []Container{1}},
			{reads: []Container{0}},
			{reads: []Container{1}},
		}, [][]NodeID{nil, nil, {0}, {1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := New()
			for i, n := range tc.nodes {
				g.Add(Spec{Label: fmt.Sprint(i), Reads: n.reads, Writes: n.writes}, n.deps...)
			}
			for i, want := range tc.want {
				if got := g.nodes[i].deps; !slices.Equal(got, want) {
					t.Errorf("node %d: deps %v, want %v", i, got, want)
				}
				for _, d := range want {
					if n := count(g.nodes[d].succs, NodeID(i)); n != 1 {
						t.Errorf("node %d lists successor %d %d times", d, i, n)
					}
				}
			}
		})
	}
}

func count(ids []NodeID, id NodeID) (n int) {
	for _, x := range ids {
		if x == id {
			n++
		}
	}
	return n
}
