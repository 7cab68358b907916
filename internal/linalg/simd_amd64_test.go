//go:build amd64

package linalg

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// simdLevels lists the dispatch levels this host runs, widest first: the
// zmm bodies, the ymm bodies, the Go loops.
func simdLevels() []string {
	var levels []string
	if haveAVX512 {
		levels = append(levels, "avx512")
	}
	if haveAVX2 {
		levels = append(levels, "avx2")
	}
	return append(levels, "go")
}

// lowerLevel points the dispatch at level, one of simdLevels, and returns
// the function that restores the detected level.
func lowerLevel(level string) (restore func()) {
	avx2, avx512 := haveAVX2, haveAVX512
	haveAVX512 = avx512 && level == "avx512"
	haveAVX2 = avx2 && level != "go"
	return func() { haveAVX2, haveAVX512 = avx2, avx512 }
}

// TestSIMDDetectionMatchesCPUInfo holds the CPUID/XCR0 detection to the
// kernel's view: Linux lists avx2 and avx512f in /proc/cpuinfo only when
// the CPU has them and the kernel enables their XSAVE state. A wrong CPUID
// or XCR0 bit would leave the zmm bodies silently off, or fault with
// SIGILL on a host that lacks them.
func TestSIMDDetectionMatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc/cpuinfo is Linux only")
	}
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if len(flags) == 0 {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	if haveAVX2 != flags["avx2"] {
		t.Errorf("haveAVX2 = %v, /proc/cpuinfo avx2 = %v", haveAVX2, flags["avx2"])
	}
	if haveAVX512 != flags["avx512f"] {
		t.Errorf("haveAVX512 = %v, /proc/cpuinfo avx512f = %v", haveAVX512, flags["avx512f"])
	}
	t.Logf("levels: %s", strings.Join(simdLevels(), " "))
}
