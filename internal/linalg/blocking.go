package linalg

// ResetBlocking does nothing: the GEMM driver always runs its compiled-in
// cache blocking (gemm_blocked.go) and there is no process-wide blocking
// to restore. It is kept only because the frozen benchmark module under
// bench/ calls it around its solves; ROADMAP item 6 deletes it together
// with those call sites.
func ResetBlocking() {}
