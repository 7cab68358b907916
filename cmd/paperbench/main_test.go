package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestQuickOutputGolden pins, byte for byte and in -all order, every
// -quick section whose output does not depend on this host's clock: the
// analytic tables and figures, Table 6, the measured comm table and Figs
// 7 and 11. Tables 7–10 print wall-clock timings and are left out.
func TestQuickOutputGolden(t *testing.T) {
	timed := map[string]bool{"table7": true, "table8": true, "table9": true, "table10": true}
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	for _, k := range order {
		if !timed[k] {
			runners[k](true)
		}
	}
	os.Stdout = stdout

	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range min(len(gl), len(wl)) {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("output differs from testdata/quick.golden at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, testdata/quick.golden %d", len(gl), len(wl))
}
