// Service: the qtd daemon embedded in-process — the full HTTP/JSON loop
// of the multi-tenant simulation service without leaving one binary.
//
// The example starts the server on a loopback port, then walks the
// three behaviours that make repeated transport calculations cheap:
//
//  1. submit-and-stream: POST /v1/runs?stream=sse returns a live
//     server-sent event stream of the per-iteration telemetry;
//  2. content-addressed caching: resubmitting the identical spec is
//     answered instantly from the cache (no solver slot consumed);
//  3. warm starts: a near-identical spec (same device, different bias)
//     is seeded with the cached converged Σ≷ state and converges in
//     fewer iterations than a cold solve;
//  4. observability: a config.trace=true run leaves a Chrome trace-event
//     artifact behind (GET /v1/runs/{id}/trace, Perfetto-loadable) and
//     every run feeds the Prometheus series on GET /metrics;
//  5. identity, not plan: the traced run's result answers the same
//     configuration asked for untraced under another schedule.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"

	"repro/internal/qt"
	"repro/internal/server"
)

func main() {
	svc, err := server.New(server.Config{Slots: 2, QueueCap: 16})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, svc)
	base := "http://" + ln.Addr().String()
	fmt.Println("qtd listening on", base)

	spec := qt.Spec{Atoms: 12, Slabs: 3, Orbitals: 2, EnergyPoints: 12, PhononModes: 3, Bias: 0.3}
	cfg := qt.RunConfig{Spec: spec, MaxIterations: 40, Tolerance: 1e-6}

	// 1. Submit and stream: every frame of the run's telemetry arrives
	// as a server-sent event while the solver iterates.
	fmt.Println("\n-- submit and stream --")
	first := streamRun(base, "acme", cfg)
	fmt.Printf("run %s: converged=%v in %d iterations\n", first.ID, first.Converged, first.Iterations)

	// 2. The identical configuration hashes to the same content address:
	// the answer comes from the cache, instantly, from any tenant.
	fmt.Println("\n-- duplicate spec --")
	dup := submit(base, "other-tenant", cfg)
	fmt.Printf("run %s: status=%s cache_hit=%v source=%s (same current: %.6g)\n",
		dup.ID, dup.Status, dup.CacheHit, dup.SourceRun, dup.Current)

	// 3. A neighbouring bias point shares the warm key: the solver
	// starts from the cached converged Σ≷ state instead of zero.
	fmt.Println("\n-- near-duplicate (warm start) --")
	near := cfg
	near.Spec.Bias = 0.32
	warm := streamRun(base, "acme", near)
	fmt.Printf("run %s: warm_start=%v source=%s, converged in %d iterations (cold run took %d)\n",
		warm.ID, warm.WarmStart, warm.SourceRun, warm.Iterations, first.Iterations)

	// The registry remembers all of it.
	resp, err := http.Get(base + "/v1/runs?tenant=acme")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Runs []server.Record `json:"runs"`
	}
	json.NewDecoder(resp.Body).Decode(&list)
	fmt.Println("\n-- registry (tenant acme) --")
	for _, r := range list.Runs {
		fmt.Printf("%s  %-9s converged=%-5v iters=%d\n", r.ID, r.Status, r.Converged, r.Iterations)
	}

	// 4. A traced run (config.trace=true always executes: it asks for an
	// execution's spans) records every BC/RGF/SSE/exchange phase; the
	// artifact is plain Chrome trace-event JSON.
	fmt.Println("\n-- traced run --")
	tcfg := cfg
	tcfg.Trace = true
	tcfg.Ranks = 2
	traced := streamRun(base, "acme", tcfg)
	var chrome struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	getJSON(base+"/v1/runs/"+traced.ID+"/trace", &chrome)
	cats := map[string]int{}
	for _, ev := range chrome.TraceEvents {
		if ev.Cat != "" {
			cats[ev.Cat]++
		}
	}
	fmt.Printf("run %s: %d trace events, spans per category %v\n", traced.ID, len(chrome.TraceEvents), cats)

	// 5. Schedule and trace change how a result is computed, never what it
	// is: the same configuration untraced under the overlap schedule is
	// answered by the traced run.
	fmt.Println("\n-- same result, another plan --")
	ocfg := tcfg
	ocfg.Trace = false
	ocfg.Schedule = "overlap"
	variant := submit(base, "acme", ocfg)
	fmt.Printf("run %s: status=%s source=%s (traced run %s; same current: %v)\n",
		variant.ID, variant.Status, variant.SourceRun, traced.ID, variant.Current == traced.Current)

	// Everything above also moved the Prometheus needles.
	fmt.Println("\n-- /metrics (excerpt) --")
	resp2, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp2.Body.Close()
	sc := bufio.NewScanner(resp2.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "qtd_cache_") || strings.HasPrefix(line, "qtd_warm_starts_total") ||
			strings.HasPrefix(line, "qtd_runs_total") {
			fmt.Println(line)
		}
	}
}

// getJSON fetches and decodes one JSON endpoint.
func getJSON(url string, v any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
}

// submit POSTs one run without streaming and returns the record.
func submit(base, tenant string, cfg qt.RunConfig) server.Record {
	body, _ := json.Marshal(map[string]any{"tenant": tenant, "config": cfg})
	resp, err := http.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var rec server.Record
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		log.Fatal(err)
	}
	return rec
}

// streamRun submits with ?stream=sse and consumes the event stream,
// printing each iteration; it returns the final record of the done
// frame.
func streamRun(base, tenant string, cfg qt.RunConfig) server.Record {
	body, _ := json.Marshal(map[string]any{"tenant": tenant, "config": cfg})
	resp, err := http.Post(base+"/v1/runs?stream=sse", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()

	var final server.Record
	event := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := []byte(strings.TrimPrefix(line, "data: "))
			switch event {
			case "iter":
				var st qt.IterStats
				json.Unmarshal(data, &st)
				fmt.Printf("  iter %2d: I = %.8g  Δ = %.2e\n", st.Iter+1, st.Current, st.Residual)
			case "done":
				json.Unmarshal(data, &final)
				return final
			}
		}
	}
	log.Fatal("stream ended without a done frame")
	return final
}
