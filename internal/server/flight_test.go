package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/qt"
)

// identityKey is the cache and single-flight address of rc.
func identityKey(t *testing.T, rc qt.RunConfig) string {
	t.Helper()
	res, err := qt.Resolve(rc)
	if err != nil {
		t.Fatal(err)
	}
	return res.Identity().Key()
}

// waitForFollowers polls until the run in flight for key has n followers
// attached, and returns its leader.
func waitForFollowers(t *testing.T, s *Server, key string, n int) *job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		leader := s.flights[key]
		got := 0
		if leader != nil {
			got = len(leader.followers)
		}
		s.mu.Unlock()
		if got == n {
			return leader
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("never saw %d followers attached to %s", n, key)
	return nil
}

// occupySlot starts a long run on a one-slot service and returns its id:
// everything submitted after it waits in the queue until it is cancelled.
// Its tolerance is one no run can meet, so it holds the slot for all of
// its 500 iterations unless cancelled — busyConfig's 1e-12 converges in
// a few dozen.
func occupySlot(t *testing.T, s *Server) string {
	t.Helper()
	rc := busyConfig(0.10, 500)
	rc.Tolerance = 1e-300
	rec, _, err := s.submit("blocker", 0, rc, origin{})
	if err != nil {
		t.Fatal(err)
	}
	waitForStatus(t, s, rec.ID, StatusRunning)
	return rec.ID
}

// streamOutcome is what one submit-and-stream client saw.
type streamOutcome struct {
	first Record // the "run" frame
	final Record // the "done" frame
	iters int
}

// postStream submits rc with ?stream=sse and follows the stream to its
// done frame, or until ctx is cancelled after the run frame (hang-up).
func postStream(ctx context.Context, t *testing.T, url string, rc qt.RunConfig, gotRun chan<- Record) streamOutcome {
	var out streamOutcome
	body, _ := json.Marshal(submitRequest{Tenant: "acme", Config: rc})
	req, _ := http.NewRequestWithContext(ctx, "POST", url+"/v1/runs?stream=sse", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Error(err)
		return out
	}
	defer resp.Body.Close()
	readSSE(resp.Body, func(event string, data []byte) bool {
		switch event {
		case "run":
			json.Unmarshal(data, &out.first)
			if gotRun != nil {
				gotRun <- out.first
			}
		case "iter":
			out.iters++
		case "done":
			json.Unmarshal(data, &out.final)
			return false
		}
		return true
	})
	return out
}

// TestSingleFlightIdenticalSubmissions: eight identical requests submitted
// at once are one slot run. The first leads; the seven others join it,
// stream its every row and end cached, naming the leader and carrying
// its bits.
func TestSingleFlightIdenticalSubmissions(t *testing.T) {
	s, ts := newService(t, Config{Slots: 1, QueueCap: 16})
	blocker := occupySlot(t, s)
	before := s.slotRuns.Load()

	rc := convergingConfig(0.23)
	const n = 8
	outs := make([]streamOutcome, n)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = postStream(context.Background(), t, ts.URL, rc, nil)
		}()
	}
	waitForFollowers(t, s, identityKey(t, rc), n-1)
	s.cancelRun(blocker)
	wg.Wait()

	if got := s.slotRuns.Load() - before; got != 1 {
		t.Errorf("%d identical requests took %d slot runs, want 1", n, got)
	}
	var leader Record
	for _, o := range outs {
		if o.final.Status == StatusDone {
			if leader.ID != "" {
				t.Fatalf("two leaders: %s and %s", leader.ID, o.final.ID)
			}
			leader = o.final
		}
	}
	if leader.ID == "" || !leader.Converged {
		t.Fatalf("no converged leader among %+v", outs)
	}
	for _, o := range outs {
		f := o.final
		if f.ID == leader.ID {
			continue
		}
		if f.Status != StatusCached || !f.CacheHit || f.SourceRun != leader.ID {
			t.Errorf("follower %s: status %s cache_hit %v source %s, want cached from %s", f.ID, f.Status, f.CacheHit, f.SourceRun, leader.ID)
		}
		if math.Float64bits(f.Current) != math.Float64bits(leader.Current) || f.Iterations != leader.Iterations {
			t.Errorf("follower %s: current %.17g after %d iterations, leader %.17g after %d", f.ID, f.Current, f.Iterations, leader.Current, leader.Iterations)
		}
		if o.iters != leader.Iterations {
			t.Errorf("follower %s streamed %d iter frames, the run had %d", f.ID, o.iters, leader.Iterations)
		}
	}
}

// TestSingleFlightLeaderDisconnect: the leader's streaming client hangs
// up while a follower is attached. The run is not cancelled — it finishes
// for the follower, whose stream ends with its cached done frame.
func TestSingleFlightLeaderDisconnect(t *testing.T) {
	s, ts := newService(t, Config{Slots: 1, QueueCap: 16})
	blocker := occupySlot(t, s)
	rc := convergingConfig(0.24)

	ctx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	gotRun := make(chan Record, 1)
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		postStream(ctx, t, ts.URL, rc, gotRun)
	}()
	leaderID := (<-gotRun).ID

	follower := make(chan streamOutcome, 1)
	go func() { follower <- postStream(context.Background(), t, ts.URL, rc, nil) }()
	lead := waitForFollowers(t, s, identityKey(t, rc), 1)

	hangUp()
	<-leaderDone
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		released := lead.released
		s.mu.Unlock()
		if released {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the leader's hang-up was never seen")
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.cancelRun(blocker)

	f := (<-follower).final
	if f.Status != StatusCached || f.SourceRun != leaderID || !f.Converged {
		t.Errorf("follower ended %s from %s (converged %v), want a converged cached answer from %s", f.Status, f.SourceRun, f.Converged, leaderID)
	}
	if rec := waitForStatus(t, s, leaderID, StatusDone); math.Float64bits(rec.Current) != math.Float64bits(f.Current) {
		t.Errorf("follower current %.17g, run %.17g", f.Current, rec.Current)
	}
}

// TestSingleFlightFollowerDisconnect: a follower that hangs up detaches
// alone — its record is cancelled, the run and its leader go on.
func TestSingleFlightFollowerDisconnect(t *testing.T) {
	s, ts := newService(t, Config{Slots: 1, QueueCap: 16})
	blocker := occupySlot(t, s)
	rc := convergingConfig(0.26)

	leader := postRun(t, ts, "acme", 0, rc, http.StatusAccepted)
	ctx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	gotRun := make(chan Record, 1)
	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		postStream(ctx, t, ts.URL, rc, gotRun)
	}()
	followerID := (<-gotRun).ID
	waitForFollowers(t, s, identityKey(t, rc), 1)

	hangUp()
	<-followerDone
	waitForStatus(t, s, followerID, StatusCancelled)
	waitForFollowers(t, s, identityKey(t, rc), 0)
	if rec, _ := s.reg.runs.get(leader.ID); rec.Status != StatusQueued {
		t.Errorf("leader is %s after its follower hung up, want queued", rec.Status)
	}

	s.cancelRun(blocker)
	waitForStatus(t, s, leader.ID, StatusDone)
	if rec, _ := s.reg.runs.get(followerID); rec.Status != StatusCancelled {
		t.Errorf("detached follower ended %s, want cancelled", rec.Status)
	}
}

// TestSingleFlightLeaderFails: when the run its followers wait for fails,
// every follower ends failed, naming it, and nobody hangs. The run fails
// for real: its warm-start donor holds a state of another device's shape.
func TestSingleFlightLeaderFails(t *testing.T) {
	s, ts := newService(t, Config{Slots: 1, QueueCap: 16})
	blocker := occupySlot(t, s)

	spec := smallSpec(0.3)
	spec.EnergyPoints = 8
	sim, err := qt.NewFromConfig(qt.RunConfig{Spec: spec, MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	run, err := sim.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	other, err := run.Wait()
	if err != nil || other.FinalState == nil {
		t.Fatalf("donor run: %v", err)
	}
	rc := convergingConfig(0.27)
	resolved, err := qt.Resolve(rc)
	if err != nil {
		t.Fatal(err)
	}
	s.cache.Put(&cacheEntry{Key: "misfit", WarmKey: resolved.Identity().WarmKey(), RunID: "run-misfit",
		Result: &qt.Result{FinalState: other.FinalState}})

	leader := postRun(t, ts, "acme", 0, rc, http.StatusAccepted)
	follower := postRun(t, ts, "acme", 0, rc, http.StatusAccepted)
	streamed := make(chan streamOutcome, 1)
	go func() { streamed <- postStream(context.Background(), t, ts.URL, rc, nil) }()
	waitForFollowers(t, s, identityKey(t, rc), 2)
	s.cancelRun(blocker)

	waitForStatus(t, s, leader.ID, StatusFailed)
	f := waitForStatus(t, s, follower.ID, StatusFailed)
	if f.SourceRun != leader.ID || f.Error == "" {
		t.Errorf("failed follower names source %q with error %q, want %s and a reason", f.SourceRun, f.Error, leader.ID)
	}
	select {
	case o := <-streamed:
		if o.final.Status != StatusFailed {
			t.Errorf("streaming follower ended %s, want failed", o.final.Status)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("streaming follower hangs after its leader failed")
	}
}

// TestSingleFlightTracedRequestExecutes: a traced request asks for an
// execution's spans, so a cached result of its identity does not answer
// it — it runs and returns spans, and its result then answers the next
// untraced request.
func TestSingleFlightTracedRequestExecutes(t *testing.T) {
	s, ts := newService(t, Config{Slots: 1, QueueCap: 16})
	rc := convergingConfig(0.28)
	first := postRun(t, ts, "acme", 0, rc, http.StatusAccepted)
	waitForStatus(t, s, first.ID, StatusDone)
	runs := s.slotRuns.Load()

	traced := rc
	traced.Trace = true
	rec := postRun(t, ts, "acme", 0, traced, http.StatusAccepted)
	waitForStatus(t, s, rec.ID, StatusDone)
	if got := s.slotRuns.Load() - runs; got != 1 {
		t.Errorf("traced request took %d slot runs, want 1", got)
	}
	if code, body := getBody(t, ts.URL+"/v1/runs/"+rec.ID+"/trace"); code != http.StatusOK || len(body) == 0 {
		t.Errorf("GET trace of the traced run = %d", code)
	}
	dup := postRun(t, ts, "acme", 0, rc, http.StatusOK)
	if dup.Status != StatusCached || dup.SourceRun != rec.ID {
		t.Errorf("untraced resubmission: %s from %s, want cached from the traced run %s", dup.Status, dup.SourceRun, rec.ID)
	}
}

// TestIdentityHitSchedulesAndAutoPlan: requests that differ from a cached
// result only in their plan — another schedule, an auto_plan request —
// are answered from it, each recording its own plan: the auto_plan request
// the rule's, as qt.Resolve writes it. A miss of the same kind is admitted
// with that plan recorded and without touching a boundary.
func TestIdentityHitSchedulesAndAutoPlan(t *testing.T) {
	s, ts := newService(t, Config{Slots: 1, QueueCap: 16})
	rc := convergingConfig(0.29)
	rc.Ranks = 2
	first := postRun(t, ts, "acme", 0, rc, http.StatusAccepted)
	done := waitForStatus(t, s, first.ID, StatusDone)
	runs := s.slotRuns.Load()

	for _, sched := range []string{"overlap", "pipeline"} {
		v := rc
		v.Schedule = sched
		got := postRun(t, ts, "acme", 0, v, http.StatusOK)
		if got.Status != StatusCached || got.SourceRun != first.ID || got.Config.Schedule != sched {
			t.Errorf("%s: %s from %s under %q, want cached from %s under its own schedule", sched, got.Status, got.SourceRun, got.Config.Schedule, first.ID)
		}
		if math.Float64bits(got.Current) != math.Float64bits(done.Current) {
			t.Errorf("%s: current %.17g, source %.17g", sched, got.Current, done.Current)
		}
	}

	auto := rc
	auto.AutoPlan = true
	want, err := qt.Resolve(auto)
	if err != nil {
		t.Fatal(err)
	}
	got := postRun(t, ts, "acme", 0, auto, http.StatusOK)
	if got.Status != StatusCached || got.SourceRun != first.ID {
		t.Errorf("auto_plan request: %s from %s, want cached from %s", got.Status, got.SourceRun, first.ID)
	}
	if got.Config != want {
		t.Errorf("auto_plan answer records %+v, want its own plan %+v", got.Config, want)
	}
	if s.slotRuns.Load() != runs {
		t.Errorf("plan variants took %d slot runs", s.slotRuns.Load()-runs)
	}

	// The miss is checked while the one slot is held by a run past its
	// first iteration, which has every boundary in its own cache: no
	// lookup can reach the store until the miss itself runs.
	blocker := occupySlot(t, s)
	s.mu.Lock()
	rows, next, unsubscribe := s.jobs[blocker].subscribe()
	s.mu.Unlock()
	if len(rows) == 0 {
		select {
		case <-next:
		case <-time.After(30 * time.Second):
			t.Fatal("the blocker never finished an iteration")
		}
	}
	unsubscribe()
	miss := auto
	miss.Spec.Bias = 0.31
	if want, err = qt.Resolve(miss); err != nil {
		t.Fatal(err)
	}
	lookups := qt.BoundaryStore().Lookups
	rec := postRun(t, ts, "acme", 0, miss, http.StatusAccepted)
	if n := qt.BoundaryStore().Lookups - lookups; n != 0 {
		t.Errorf("an auto_plan miss was admitted with %d boundary lookups", n)
	}
	if rec.Status != StatusQueued || rec.Config != want {
		t.Errorf("auto_plan miss admitted %s with %+v, want queued with its plan %+v", rec.Status, rec.Config, want)
	}
	s.cancelRun(blocker)
	waitForStatus(t, s, rec.ID, StatusDone)
}
