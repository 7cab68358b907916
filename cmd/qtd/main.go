// Command qtd is the multi-tenant simulation daemon: it serves the qt
// facade over HTTP/JSON, streams per-iteration telemetry as server-sent
// events, schedules runs through a fair-share queue onto a bounded pool
// of solver slots, answers repeated specs from a content-addressed
// result cache (and warm-starts near-identical ones from cached
// converged Σ≷ states), and records every run in a persistent registry.
//
// API (all under /v1):
//
//	POST   /runs              submit {tenant, priority, config}; 202 queued,
//	                          200 cached, 429 + Retry-After when shedding.
//	                          ?stream=sse streams run/iter/done frames and
//	                          cancels the run if the client hangs up.
//	GET    /runs              query the registry (?tenant= &status= &key= &limit=;
//	                          newest 100 by default, limit capped at 1000)
//	GET    /runs/{id}         one registry record
//	DELETE /runs/{id}         cancel a queued or running run
//	GET    /runs/{id}/stream  attach to (or replay) the telemetry stream
//	GET    /runs/{id}/report  the rendered report (?format=text|json|csv)
//	GET    /runs/{id}/trace   Chrome trace-event JSON of a config.trace=true
//	                          run (load in Perfetto / chrome://tracing)
//	POST   /ensembles         submit a disorder study {tenant, members,
//	                          base_seed, config} — config.spec.profile
//	                          required; members run as registry-linked
//	                          runs (GET /runs?study=), duplicates answer
//	                          from the cache, siblings warm-start.
//	                          ?stream=sse streams study/member/done frames
//	GET    /ensembles         query studies (?tenant= &status= &limit=)
//	GET    /ensembles/{id}    one study record (lineage, progress, report)
//	DELETE /ensembles/{id}    cancel a running study and its members
//	GET    /ensembles/{id}/stream  attach to (or replay) member progress
//	GET    /ensembles/{id}/report  the reduced mean/variance/CI report
//	                          (?format=text|json|csv)
//	GET    /stats             queue, slot, and cache counters
//	GET    /healthz           liveness
//
// Observability (outside /v1):
//
//	GET /metrics              Prometheus text exposition: per-tenant queue
//	                          depth/wait/sheds, slot utilization, cache and
//	                          warm-start counters, run duration/iteration
//	                          histograms, exchange byte totals
//	GET /debug/pprof/         runtime profiles (only with -pprof)
//
// Example:
//
//	qtd -addr :8080 -data ./qtd-data -slots 4
//	curl -s localhost:8080/v1/runs -d '{"tenant":"acme","config":{"spec":{"atoms":24,"slabs":6}}}'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	data := flag.String("data", "", "run registry directory (empty = in-memory only)")
	slots := flag.Int("slots", 0, "concurrent solver slots (0 = half the CPUs, min 2)")
	queueCap := flag.Int("queue", 64, "admission queue capacity")
	cacheCap := flag.Int("cache", 128, "result cache capacity (entries)")
	noWarm := flag.Bool("no-warm-start", false, "disable warm-starting from cached Σ≷ states")
	logLevel := flag.String("log", "info", "structured log level: debug, info, warn, error")
	withPprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintln(os.Stderr, "qtd: -log:", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	svc, err := server.New(server.Config{
		Slots: *slots, QueueCap: *queueCap, CacheCap: *cacheCap,
		DataDir: *data, NoWarmStart: *noWarm,
		Logger: logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "qtd:", err)
		os.Exit(1)
	}

	// The service handles everything it routes (/v1, /metrics); the outer
	// mux only exists to optionally graft the pprof endpoints beside it.
	handler := http.Handler(svc)
	if *withPprof {
		mux := http.NewServeMux()
		mux.Handle("/", svc)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}

	// No WriteTimeout: /v1/runs?stream=sse responses are long-lived by
	// design. The two below bound what an idle or stalled client can hold.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("qtd: listening on %s (registry: %s)", *addr, registryLabel(*data))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "qtd:", err)
		os.Exit(1)
	case s := <-sig:
		log.Printf("qtd: %s, shutting down", s)
	}

	// Cancel in-flight runs first (their SSE streams terminate and the
	// registry records them as cancelled), then drain the HTTP side.
	svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	httpSrv.Shutdown(ctx)
}

func registryLabel(dir string) string {
	if dir == "" {
		return "in-memory"
	}
	return dir
}
