package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// provenance is the header every result carries: enough to tell two
// result files apart by what produced them.
type provenance struct {
	Commit     string
	GoVersion  string
	CPUModel   string
	CPUFlags   []string // the subset the kernels dispatch on
	GEMMPath   string   // "avx2" or "generic"
	Cores      int
	GOMAXPROCS int
	LoadStart  float64
	LoadEnd    float64
	Seed       uint64
	Workload   string
	Quick      bool
	Started    string
}

func collectProvenance(workload string, seed uint64, quick bool) provenance {
	model, flags := cpuInfo()
	path := "generic"
	if runtime.GOARCH == "amd64" && contains(flags, "avx2") {
		path = "avx2"
	}
	return provenance{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		CPUModel:   model,
		CPUFlags:   flags,
		GEMMPath:   path,
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		LoadStart:  loadAvg(),
		Seed:       seed,
		Workload:   workload,
		Quick:      quick,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// gitCommit resolves HEAD by reading .git directly (walking up from the
// working directory), so no process is started and nothing outside the
// checkout is touched beyond the lookup. A checkout that is not a git
// repository — how the benchmark driver runs it — reports "unknown".
func gitCommit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for i := 0; i < 3; i++ { // cwd is the repo root or bench/
		git := filepath.Join(dir, ".git")
		if head, err := os.ReadFile(filepath.Join(git, "HEAD")); err == nil {
			h := strings.TrimSpace(string(head))
			ref, isRef := strings.CutPrefix(h, "ref: ")
			if !isRef {
				return h
			}
			if b, err := os.ReadFile(filepath.Join(git, ref)); err == nil {
				return strings.TrimSpace(string(b))
			}
			if packed, err := os.ReadFile(filepath.Join(git, "packed-refs")); err == nil {
				for _, line := range strings.Split(string(packed), "\n") {
					if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
						return sha
					}
				}
			}
			return "unknown"
		}
		dir = filepath.Dir(dir)
	}
	return "unknown"
}

// cpuInfo reads the model name and the SIMD feature flags the linalg
// kernels care about from /proc/cpuinfo ("" and nil elsewhere).
func cpuInfo() (model string, flags []string) {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "", nil
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "model name":
			if model == "" {
				model = val
			}
		case "flags":
			if flags == nil {
				for _, fl := range strings.Fields(val) {
					switch fl {
					case "sse2", "sse4_2", "avx", "avx2", "fma", "avx512f":
						flags = append(flags, fl)
					}
				}
			}
		}
	}
	return model, flags
}

// loadAvg is the 1-minute load average (0 when unreadable).
func loadAvg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB,
// 0 when /proc is unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// llcMB is the size of the largest cache sysfs reports for cpu0, in MB
// (0 when unreadable).
func llcMB() float64 {
	var best float64
	matches, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	for _, m := range matches {
		b, err := os.ReadFile(m)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		mult := 1.0 / (1 << 20)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1.0/1024, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1, strings.TrimSuffix(s, "M")
		}
		v, err := strconv.ParseFloat(s, 64)
		if err == nil && v*mult > best {
			best = v * mult
		}
	}
	return best
}

func (p provenance) print() {
	fmt.Printf("# workload=%s seed=%#x quick=%v started=%s\n", p.Workload, p.Seed, p.Quick, p.Started)
	fmt.Printf("# commit=%s go=%s gemm=%s\n", p.Commit, p.GoVersion, p.GEMMPath)
	fmt.Printf("# cpu=%q flags=%v cores=%d gomaxprocs=%d load_start=%.2f\n",
		p.CPUModel, p.CPUFlags, p.Cores, p.GOMAXPROCS, p.LoadStart)
	if p.LoadStart > float64(p.Cores) {
		fmt.Printf("# WARNING: load average %.2f exceeds %d cores — timings will be inflated\n", p.LoadStart, p.Cores)
	}
}
