package linalg

// No-op shims for the frozen benchmark module. bench/ may not change with
// the code it measures, so the two process-wide hooks it still calls
// survive here as empty functions after the state behind them was deleted:
//
//	ResetBlocking  bench/main.go:209, bench/solve.go:59, bench/rungs.go:496
//	ReserveWorker  bench/main.go:423, bench/rungs.go:368
//
// Nothing in this module calls either. ROADMAP item 3(a) deletes this file
// together with those five call sites.

// ResetBlocking does nothing: the GEMM driver always runs its compiled-in
// cache blocking (gemm_blocked.go) and there is no process-wide blocking
// to restore.
func ResetBlocking() {}

// ReserveWorker does nothing and returns a no-op release: there is no
// worker budget to draw from — every kernel runs on its caller's goroutine
// and the worker count of each loop is decided by the loop's caller.
func ReserveWorker() (release func()) { return func() {} }
