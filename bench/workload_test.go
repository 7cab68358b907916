package main

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

func names(jobs []solveJob) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = j.Name
	}
	return out
}

// The same seed gives the same campaign; another seed gives the same
// solves — the same work — in another order.
func TestCampaignSeeding(t *testing.T) {
	for _, w := range workloads {
		if w.Name == "qtd_tenants" {
			continue
		}
		a, b := w.campaign(7, false), w.campaign(7, false)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different campaign", w.Name)
		}
		canon := names(w.jobs(false))
		orders := map[string]bool{}
		for seed := uint64(0); seed < 32; seed++ {
			got := names(w.campaign(seed, false))
			orders[strings.Join(got, ",")] = true
			sort.Strings(got)
			want := append([]string(nil), canon...)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: solves %v, want the set %v", w.Name, seed, got, want)
			}
		}
		if len(orders) < 2 {
			t.Errorf("%s: 32 seeds produced one order", w.Name)
		}
		for _, j := range w.campaign(3, false) {
			if j.Config.Spec.Seed != 0x5eed {
				t.Errorf("%s %s: structure seed %#x, must stay pinned", w.Name, j.Name, j.Config.Spec.Seed)
			}
		}
	}
}

func TestQuickUsesTheTinyDevice(t *testing.T) {
	for _, w := range workloads {
		rc := w.baseConfig(true)
		if rc.Spec.Atoms != quickSpec.Atoms || rc.Spec.EnergyPoints != quickSpec.EnergyPoints {
			t.Errorf("%s: quick spec %+v", w.Name, rc.Spec)
		}
	}
}

func script(t *testing.T, seed uint64) []request {
	t.Helper()
	w, err := findWorkload("qtd_tenants")
	if err != nil {
		t.Fatal(err)
	}
	return w.script(seed, false)
}

func TestScriptSeeding(t *testing.T) {
	if !reflect.DeepEqual(script(t, 11), script(t, 11)) {
		t.Fatal("same seed, different script")
	}
	key := func(s []request) string {
		var b strings.Builder
		for _, r := range s {
			b.WriteString(r.Tenant + ":" + r.Name + " ")
		}
		return b.String()
	}
	seen := map[string]bool{}
	for seed := uint64(0); seed < 32; seed++ {
		seen[key(script(t, seed))] = true
	}
	if len(seen) < 8 {
		t.Fatalf("32 seeds produced only %d distinct scripts", len(seen))
	}
}

// What decides the amount of work is the same for every seed: 10 + 8 + 2
// requests, phases in barrier order, the sweep ascending on one tenant,
// duplicates only of hand-planned phase-A answers, the sweep's last
// point asked for last in phase B, and identical twins in phase C.
func TestScriptStructure(t *testing.T) {
	for seed := uint64(0); seed < 16; seed++ {
		s := script(t, seed)
		if len(s) != 20 {
			t.Fatalf("seed %d: %d requests", seed, len(s))
		}
		perPhase := map[int]int{}
		phaseA := map[string]bool{}
		var sweep []string
		lastB := map[string]string{}
		for i, r := range s {
			if i > 0 && r.Phase < s[i-1].Phase {
				t.Fatalf("seed %d: phase order broken at %d", seed, i)
			}
			perPhase[r.Phase]++
			switch r.Phase {
			case 0:
				phaseA[r.Name] = true
				if strings.HasPrefix(r.Name, "seq/") {
					sweep = append(sweep, r.Name)
					if r.Tenant != tenants[0] {
						t.Errorf("seed %d: %s submitted by %s", seed, r.Name, r.Tenant)
					}
				} else if r.Tenant != tenants[1] || r.Config.Ranks != 2 {
					t.Errorf("seed %d: %s: tenant %s ranks %d", seed, r.Name, r.Tenant, r.Config.Ranks)
				}
			case 1:
				src, ok := strings.CutPrefix(r.Name, "dup:")
				if !ok || !phaseA[src] || src == "p2/auto" {
					t.Errorf("seed %d: phase B request %q is not a duplicate of a hand-planned phase A answer", seed, r.Name)
				}
				lastB[r.Tenant] = r.Name
			case 2:
				if r.Name != "twin" || !reflect.DeepEqual(r.Config, s[len(s)-1].Config) {
					t.Errorf("seed %d: phase C request %+v", seed, r)
				}
			}
		}
		if perPhase[0] != 10 || perPhase[1] != 8 || perPhase[2] != 2 {
			t.Fatalf("seed %d: phase sizes %v", seed, perPhase)
		}
		if !sort.StringsAreSorted(sweep) || len(sweep) != 6 {
			t.Errorf("seed %d: sweep %v", seed, sweep)
		}
		for _, tn := range tenants {
			if lastB[tn] != "dup:seq/0.35" {
				t.Errorf("seed %d: %s ends phase B with %q", seed, tn, lastB[tn])
			}
		}
	}
}
