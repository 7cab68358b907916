//go:build !amd64

package linalg

// simdLevels lists the dispatch levels this host runs: the Go loops only.
func simdLevels() []string { return []string{"go"} }

// lowerLevel has nothing to lower off amd64.
func lowerLevel(string) (restore func()) { return func() {} }
