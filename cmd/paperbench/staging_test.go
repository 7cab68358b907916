package main

import "testing"

func TestNaiveScalesLinearly(t *testing.T) {
	rows := compareIngestion([]int{1000, 2000})
	if r := rows[1].naiveSec / rows[0].naiveSec; r < 1.99 || r > 2.01 {
		t.Fatalf("naive ingestion should scale linearly with nodes: %g", r)
	}
}

func TestStagedIndependentOfNodes(t *testing.T) {
	rows := compareIngestion([]int{100, 5000})
	if rows[0].stagedSec != rows[1].stagedSec {
		t.Fatal("staged ingestion should not depend on node count")
	}
}

func TestPaperCalibration(t *testing.T) {
	// §7.1.1: 1,112 s at 2,589 nodes naive; 31.1 s staged at 4,560 nodes;
	// "over 30 minutes" at 5,300 nodes.
	rows := compareIngestion([]int{2589, 5300, 4560})
	if naive := rows[0].naiveSec; naive < 900 || naive > 1400 {
		t.Fatalf("naive(2589) = %.0f s, paper measured 1,112 s", naive)
	}
	if full := rows[1].naiveSec; full < 1800 {
		t.Fatalf("naive(5300) = %.0f s, paper says over 30 minutes", full)
	}
	if staged := rows[2].stagedSec; staged < 15 || staged > 60 {
		t.Fatalf("staged(4560) = %.1f s, paper measured 31.1 s", staged)
	}
}

func TestCompareRows(t *testing.T) {
	rows := compareIngestion([]int{100, 2589, 4560})
	for _, r := range rows {
		if r.stagedSec >= r.naiveSec && r.nodes > 10 {
			t.Fatalf("staging should win at %d nodes", r.nodes)
		}
	}
	// The win grows with scale.
	if rows[2].speedup <= rows[0].speedup {
		t.Fatal("staging advantage should grow with node count")
	}
}
