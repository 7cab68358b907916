package qt

import "repro/internal/bc"

// boundaries is the one boundary store of the process: every solve a
// Simulation launches — with or without ranks, and ballistic — sits its
// per-run cache over it, so a lead one solve decimated at an energy is
// never decimated again by a later one (the next bias of a sweep, a qtd
// bias family, a schedule variant). It is a bounded memo of a pure
// function, not configuration: no knob selects it, a hit returns the very
// matrices the decimation would have produced, and nothing is looked up
// or hashed before Start.
var boundaries = bc.NewStore(bc.StoreBudget)

// BoundaryStoreStats are the counters of the process's boundary store.
type BoundaryStoreStats = bc.StoreStats

// BoundaryStore reports the boundary store's counters: how many boundary
// lookups missed a run's own cache, how many of those an earlier solve
// had already decimated, and what the store holds.
func BoundaryStore() BoundaryStoreStats { return boundaries.Stats() }
