package dist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
	"reflect"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/sdfg"
)

// graphClosure reads g's nodes through reflection — the graph exports no
// edge list, and the pin below must not depend on how its edges are
// stated — and returns, per node in insertion order, its label, its kind,
// the set of its transitive ancestors as a bitset over node ids, and the
// graph's direct edge count.
func graphClosure(g *sdfg.Graph) (labels []string, kinds []uint64, anc [][]uint64, edges int) {
	nodes := reflect.ValueOf(g).Elem().FieldByName("nodes")
	n := nodes.Len()
	words := (n + 63) / 64
	for id := 0; id < n; id++ {
		v := nodes.Index(id).Elem()
		labels = append(labels, v.FieldByName("Label").String())
		kinds = append(kinds, v.FieldByName("Kind").Uint())
		set := make([]uint64, words)
		deps := v.FieldByName("deps")
		edges += deps.Len()
		for k := 0; k < deps.Len(); k++ {
			d := int(deps.Index(k).Int())
			set[d/64] |= 1 << (d % 64)
			for w, a := range anc[d] {
				set[w] |= a
			}
		}
		anc = append(anc, set)
	}
	return labels, kinds, anc, edges
}

// TestWindowGraphDigests pins the order every rank's window graph
// imposes: per node its label, kind and set of transitive ancestors,
// hashed with SHA-256 over all ranks of the world, for P ∈ {1, 2, 4} ×
// depth ∈ {1, 2, 3} under linear mixing and for the one-rank world under
// Anderson mixing. Two graphs with one digest run every node after
// exactly the same nodes, whatever edges state it. The graph depends on
// the world size, the window depth and the mixer only, so the pool is one
// worker.
func TestWindowGraphDigests(t *testing.T) {
	dev := testDevice(t)
	for _, tc := range []struct {
		ranks, depth int
		anderson     bool
		want         string
	}{
		{1, 1, false,
			"0b8a4afb58e79c839a8db0fe9e503acd850e83ad0b42eb787c85802cfb5daffe"},
		{1, 2, false,
			"5c8507e64288a2a3335cc7945a128d0c682d0cf54a7f0c100e858d43a2cabac6"},
		{1, 3, false,
			"7185372111f59602f726e3ca91dd85cdad4c6d5d1e54808d10bc575e83e9b57a"},
		{2, 1, false,
			"f1f1d08782e02e57d31c6d7ba152be68f49f2cd2063587c66b681f73a8ea0cf5"},
		{2, 2, false,
			"8a7e8626ebf8d768f34c9d71d58731932d1b7dd8e68cfec4c0737157a781b7c1"},
		{2, 3, false,
			"f2866e5f146231f8a8d0c8ad755efed9181607228150d1cced06f5dae1314811"},
		{4, 1, false,
			"641613cd43c8927744bf52712550cc0fb34889d69decdd68d608b0b951efb763"},
		{4, 2, false,
			"427d60f5e4bc1dafefe58d3401ee390120b633970e4edaa85ea3af4b98587630"},
		{4, 3, false,
			"c01ba436df552a2a4cf06c13c4d1d7700437b9af3ebf5d51725e6ed5fccb77e9"},
		{1, 1, true,
			"7789f613c0b0ee04f383bbe276f8568637af538402f2584464c6ccb7c685e9fd"},
		{1, 2, true,
			"bb65bc4c13344d2be2b73b8e322b585bc1dda2e046930b7d2385d44e9ef3bfd7"},
		{1, 3, true,
			"6d0e5205e72eba8d7cb10768170588d3dad4308a34de41214af58cc6b9b30aa5"},
	} {
		tag := fmt.Sprintf("P=%d depth=%d anderson=%v", tc.ranks, tc.depth, tc.anderson)
		opts := sched{SchedulePipeline, 1, tc.depth}.forced(tc.ranks, 10)
		opts.Anderson = tc.anderson
		opts, err := opts.Validate()
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		graphs := make([]*sdfg.Graph, tc.ranks)
		var mu sync.Mutex
		err = comm.NewWorld(tc.ranks).Run(func(c *comm.Comm) error {
			rs := newRankState(c, dev, opts)
			ring := make([]*slot, opts.PipelineDepth)
			for k := range ring {
				ring[k] = rs.newSlot(opts)
			}
			g, _ := rs.buildWindowGraph(opts, sdfg.NewExecutor(1), &pipeRun{}, ring, &Result{})
			mu.Lock()
			graphs[c.Rank()] = g
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		h := sha256.New()
		var b [8]byte
		u64 := func(v uint64) {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		for r, g := range graphs {
			labels, kinds, anc, edges := graphClosure(g)
			u64(uint64(len(labels)))
			pairs := 0
			for id, label := range labels {
				u64(uint64(len(label)))
				h.Write([]byte(label))
				u64(kinds[id])
				for _, w := range anc[id] {
					u64(w)
					pairs += bits.OnesCount64(w)
				}
			}
			t.Logf("%s rank %d: %d nodes, %d edges, %d reachable pairs", tag, r, len(labels), edges, pairs)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: digest %s, recorded %s", tag, got, tc.want)
		}
	}
}
