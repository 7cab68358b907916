package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

// Outcome classes of a qtd response, read off the returned record.
const (
	classComputed = "computed"
	classWarm     = "warm_start"
	classCached   = "cached"
	classFailed   = "failed"
)

// classify names how qtd answered a request, from the final registry
// record alone — never from where the request sat in the script.
func classify(rec server.Record) string {
	switch {
	case rec.Status == server.StatusCached || rec.CacheHit:
		return classCached
	case rec.Status != server.StatusDone:
		return classFailed
	case rec.WarmStart:
		return classWarm
	}
	return classComputed
}

// reqOutcome is one request as the client saw it.
type reqOutcome struct {
	Req       request
	Status    int   // HTTP status
	LatencyNs int64 // first POST → "done" frame (or error), resubmissions included
	FirstNs   int64 // POST → first "iter" frame (0 if none)
	Record    server.Record
	Class     string
	// Lost counts submissions whose stream ended with the run still
	// queued: the server dropped the admitted job (see postRun).
	Lost int
	Err  error
}

// serviceFacts are the server-side numbers of one pass, read through the
// service's public surface after the script ends.
type serviceFacts struct {
	Stats           server.Stats
	ScrapeNs        int64
	ReopenNs        int64
	RegistryBytes   int64
	RegistryRecords int
}

// postRun is the closed-loop client's "get me this answer": submit, follow
// the stream to its "done" frame, and resubmit when the server lost the
// run. qtd at the commit that defined the benchmark has an admission
// race — a slot worker can pop a job before submit has written its
// registry record, finds no record, and drops the job; the stream then
// ends with a "done" frame whose record still says queued. It needs an
// idle worker at the instant of the POST, which is exactly what the
// first requests of a phase and the phase-C twins meet, so a client that
// did not resubmit would fail a few percent of passes. The resubmission
// is counted (server.lost_admissions) and its time stays in the latency.
func postRun(client *http.Client, base string, req request, rec *recorder, parent int) reqOutcome {
	start := time.Now()
	lost := 0
	for {
		out := postOnce(client, base, req, rec, parent)
		out.Lost = lost
		out.LatencyNs = time.Since(start).Nanoseconds()
		unfinished := out.Err != nil && (out.Record.Status == server.StatusQueued || out.Record.Status == server.StatusRunning)
		if !unfinished || lost == 2 {
			return out
		}
		lost++
	}
}

// postOnce submits one request with ?stream=sse and follows the stream
// to its "done" frame (postRun stamps the latency).
func postOnce(client *http.Client, base string, req request, rec *recorder, parent int) reqOutcome {
	out := reqOutcome{Req: req}
	sp := rec.begin(req.Tenant, "POST /v1/runs "+req.Name, parent)
	defer rec.end(sp)

	body, err := json.Marshal(map[string]any{"tenant": req.Tenant, "config": req.Config})
	if err != nil {
		out.Err, out.Class = err, classFailed
		return out
	}
	start := time.Now()
	resp, err := client.Post(base+"/v1/runs?stream=sse", "application/json", bytes.NewReader(body))
	if err != nil {
		out.Err, out.Class = err, classFailed
		return out
	}
	defer resp.Body.Close()
	out.Status = resp.StatusCode
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		out.Err = fmt.Errorf("%s %s: HTTP %d: %s", req.Tenant, req.Name, resp.StatusCode, strings.TrimSpace(string(msg)))
		out.Class = classFailed
		return out
	}

	event := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			event = ev
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		switch event {
		case "iter":
			if out.FirstNs == 0 {
				out.FirstNs = time.Since(start).Nanoseconds()
			}
		case "done":
			if err := json.Unmarshal([]byte(data), &out.Record); err != nil {
				out.Err, out.Class = fmt.Errorf("%s %s: done frame: %w", req.Tenant, req.Name, err), classFailed
				return out
			}
			out.Class = classify(out.Record)
			if out.Class == classFailed {
				out.Err = fmt.Errorf("%s %s: run %s ended %s: %s", req.Tenant, req.Name, out.Record.ID, out.Record.Status, out.Record.Error)
			}
			return out
		}
	}
	out.Err, out.Class = fmt.Errorf("%s %s: stream ended without a done frame (%v)", req.Tenant, req.Name, sc.Err()), classFailed
	return out
}

// qtd is one in-process service instance on a loopback listener with its
// own data directory — what a pass, a warm-up or a set-up sample starts.
type qtd struct {
	svc     *server.Server
	ts      *httptest.Server
	dataDir string
	setupNs int64 // wall of server.New + listener start
	down    bool
}

func startQtd(scratch string) (*qtd, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	dataDir, err := os.MkdirTemp(scratch, "qtd-data-")
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	svc, err := server.New(server.Config{Slots: 2, DataDir: dataDir})
	if err != nil {
		os.RemoveAll(dataDir)
		return nil, err
	}
	ts := httptest.NewServer(svc)
	return &qtd{svc: svc, ts: ts, dataDir: dataDir, setupNs: time.Since(t0).Nanoseconds()}, nil
}

// shutdown stops the listener and the service, once; the data directory
// stays for the registry to be reopened.
func (q *qtd) shutdown() {
	if !q.down {
		q.down = true
		q.ts.Close()
		q.svc.Close()
	}
}

// stop shuts down and removes the data directory.
func (q *qtd) stop() {
	q.shutdown()
	os.RemoveAll(q.dataDir)
}

// runTenantsPass plays the script once against a fresh in-process qtd:
// new server, new data directory, closed loop of one goroutine per
// tenant, a barrier between phases. genNs is the script-generation time
// charged to set-up; scratch is the directory the data dir is made in.
func runTenantsPass(script []request, genNs int64, scratch string, rec *recorder) (pass, error) {
	root := rec.begin("pass", "pass", -1)
	defer rec.end(root)

	sp := rec.begin("pass", "server.New+listen", root)
	q, err := startQtd(scratch)
	if err != nil {
		return pass{}, err
	}
	defer q.stop()
	rec.end(sp)
	svc, ts, dataDir, setupNs := q.svc, q.ts, q.dataDir, q.setupNs+genNs

	client := ts.Client()
	phases := 0
	for _, r := range script {
		phases = max(phases, r.Phase+1)
	}
	outcomes := make([][]reqOutcome, len(tenants))
	// The host reference is timed at the phase barriers, where no request
	// is in flight; the time it takes comes off the makespan. A pass has
	// only four barriers, so each takes a double burst.
	var refMs []float64
	var refNs int64
	timeRef := func() {
		t0 := time.Now()
		refMs = sampleRef(refMs, 2*refBurst)
		refNs += time.Since(t0).Nanoseconds()
	}
	start := time.Now()
	timeRef()
	for ph := 0; ph < phases; ph++ {
		psp := rec.begin("pass", fmt.Sprintf("phase %c", 'A'+ph), root)
		release := make(chan struct{})
		var wg sync.WaitGroup
		for ti, tenant := range tenants {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-release // both tenants start the phase at the same instant
				for _, r := range script {
					if r.Phase == ph && r.Tenant == tenant {
						outcomes[ti] = append(outcomes[ti], postRun(client, ts.URL, r, rec, psp))
					}
				}
			}()
		}
		close(release)
		wg.Wait()
		rec.end(psp)
		timeRef()
	}
	makespan := time.Since(start) - time.Duration(refNs)

	p := pass{SetupS: float64(setupNs) / 1e9, SolveS: makespan.Seconds(), RefMs: refMs}
	for _, os := range outcomes {
		p.Requests = append(p.Requests, os...)
	}
	for _, o := range p.Requests {
		if o.Class != classComputed && o.Class != classWarm {
			continue
		}
		if o.Record.Report != nil {
			for _, st := range o.Record.Report.Trace {
				p.IterMs = append(p.IterMs, float64(st.WallNs)/1e6)
			}
		}
		p.Iterations += o.Record.Iterations
	}

	facts := &serviceFacts{Stats: svc.ServiceStats()}
	t0 := time.Now()
	resp, err := client.Get(ts.URL + "/metrics")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body) // only the scrape's duration matters
		resp.Body.Close()
		facts.ScrapeNs = time.Since(t0).Nanoseconds()
	}
	q.shutdown()
	t0 = time.Now()
	if reg, err := server.OpenRegistry(dataDir); err == nil {
		facts.ReopenNs = time.Since(t0).Nanoseconds()
		facts.RegistryRecords = len(reg.List(server.Query{}))
	}
	_ = filepath.WalkDir(dataDir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				facts.RegistryBytes += info.Size()
			}
		}
		return nil
	})
	p.Service = facts
	return p, nil
}

// warmQtd pushes one sequential solve through a throwaway server so the
// first timed pass does not pay the process's first HTTP round trip,
// first registry write and first solver allocation.
func warmQtd(w workload, quick bool, scratch string) (time.Duration, error) {
	rc := w.baseConfig(quick)
	rc.Spec.Bias = 0.3
	t0 := time.Now()
	p, err := runTenantsPass([]request{{Tenant: tenants[0], Name: "warm-up", Config: rc}}, 0, scratch, nil)
	if err != nil {
		return 0, err
	}
	for _, o := range p.Requests {
		if o.Err != nil {
			return 0, o.Err
		}
	}
	return time.Since(t0), nil
}
