package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/ensemble"
	"repro/internal/qt"
	"repro/internal/report"
)

// disorderedConfig is the fast profiled configuration the study tests
// fan out over disorder seeds.
func disorderedConfig(bias float64) qt.RunConfig {
	spec := smallSpec(bias)
	spec.Profile = &device.Profile{
		Doping: &device.Doping{Fraction: 0.25, Shift: -0.08},
		Strain: &device.Strain{Amplitude: 0.04},
	}
	return qt.RunConfig{Spec: spec, MaxIterations: 40, Tolerance: 1e-6}
}

// postStudy submits a study and decodes the admission record.
func postStudy(t *testing.T, ts *httptest.Server, req studyRequest, wantStatus int) studyRecord {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/ensembles", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST /v1/ensembles = %d, want %d: %s", resp.StatusCode, wantStatus, raw)
	}
	var rec studyRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("decode study record: %v: %s", err, raw)
	}
	return rec
}

// waitForStudy polls the registry until the study reaches the wanted
// status.
func waitForStudy(t *testing.T, s *Server, id string, want Status) studyRecord {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		rec, ok := s.reg.studies.get(id)
		if ok && rec.Status == want {
			return rec
		}
		time.Sleep(5 * time.Millisecond)
	}
	rec, _ := s.reg.studies.get(id)
	t.Fatalf("study %s stuck in status %s, want %s", id, rec.Status, want)
	return studyRecord{}
}

// TestStudyEndToEnd is the acceptance path: an N=8 study through the
// HTTP surface, member lineage in the registry, the reduced moments
// matching a serial recomputation to 1e-12, and a resubmission answered
// entirely from the cache without consuming a solver slot.
func TestStudyEndToEnd(t *testing.T) {
	const n = 8
	s, ts := newService(t, Config{Slots: 2, QueueCap: 32})

	rec := postStudy(t, ts, studyRequest{
		Tenant: "lab", Members: n, BaseSeed: 1000, Config: disorderedConfig(0.1),
	}, http.StatusAccepted)
	if rec.Members != n || rec.Status != StatusQueued {
		t.Fatalf("admission record: %+v", rec)
	}
	final := waitForStudy(t, s, rec.ID, StatusDone)

	// Every member is a first-class registry run carrying study lineage.
	if len(final.MemberRuns) != n {
		t.Fatalf("MemberRuns = %d ids, want %d", len(final.MemberRuns), n)
	}
	linked := s.reg.List(Query{Study: final.ID, Limit: 100})
	if len(linked) != n {
		t.Fatalf("List(Study=%s) = %d runs, want %d", final.ID, len(linked), n)
	}
	seeds := map[uint64]bool{}
	for _, mr := range linked {
		if mr.Study != final.ID {
			t.Fatalf("run %s study lineage %q, want %q", mr.ID, mr.Study, final.ID)
		}
		seeds[mr.Config.Spec.DisorderSeed] = true
	}
	for i := uint64(0); i < n; i++ {
		if !seeds[1000+i] {
			t.Fatalf("no member run with disorder seed %d", 1000+i)
		}
	}

	// The reduced moments must match a serial two-pass recomputation over
	// the per-member currents to 1e-12.
	if final.Report == nil {
		t.Fatal("finished study has no report")
	}
	if final.Report.Current.N != n {
		t.Fatalf("Current.N = %d, want %d", final.Report.Current.N, n)
	}
	currents := make([]float64, 0, n)
	for _, id := range final.MemberRuns {
		mr, ok := s.reg.runs.get(id)
		if !ok || !mr.Converged {
			t.Fatalf("member %s missing or unconverged", id)
		}
		currents = append(currents, mr.Current)
	}
	mean := 0.0
	for _, x := range currents {
		mean += x
	}
	mean /= float64(n)
	varSum := 0.0
	for _, x := range currents {
		varSum += (x - mean) * (x - mean)
	}
	variance := varSum / float64(n-1)
	if relErr(final.Report.Current.Mean, mean) > 1e-12 {
		t.Errorf("mean: reduced %.17g vs serial %.17g", final.Report.Current.Mean, mean)
	}
	if relErr(final.Report.Current.Variance, variance) > 1e-12 {
		t.Errorf("variance: reduced %.17g vs serial %.17g", final.Report.Current.Variance, variance)
	}
	if final.Report.Current.Min == final.Report.Current.Max {
		t.Error("disorder produced identical member currents — profile not applied?")
	}
	if final.Report.DOSMembers == 0 || len(final.Report.DOS) == 0 {
		t.Errorf("DOS reduction empty: members %d, rows %d",
			final.Report.DOSMembers, len(final.Report.DOS))
	}

	// Resubmitting the identical study is answered member-for-member from
	// the content-addressed cache: no additional solver slot runs.
	slotsBefore := s.slotRuns.Load()
	rec2 := postStudy(t, ts, studyRequest{
		Tenant: "lab", Members: n, BaseSeed: 1000, Config: disorderedConfig(0.1),
	}, http.StatusAccepted)
	final2 := waitForStudy(t, s, rec2.ID, StatusDone)
	if got := s.slotRuns.Load(); got != slotsBefore {
		t.Fatalf("resubmission consumed %d solver slots, want 0", got-slotsBefore)
	}
	if final2.CacheHits != n {
		t.Fatalf("resubmission CacheHits = %d, want %d", final2.CacheHits, n)
	}
	if relErr(final2.Report.Current.Mean, final.Report.Current.Mean) > 0 {
		t.Errorf("cached rerun mean %.17g != original %.17g",
			final2.Report.Current.Mean, final.Report.Current.Mean)
	}
	if final2.Report.DOSMembers != final.Report.DOSMembers {
		t.Errorf("cached rerun reduced the DOS of %d members, the original of %d",
			final2.Report.DOSMembers, final.Report.DOSMembers)
	}
}

// TestCachedSubmitCarriesItsResult: a request answered from the cache is
// a job already done that holds the cached result itself, so a study
// waiting on it reduces that result even if the cache evicts the
// artifact meanwhile.
func TestCachedSubmitCarriesItsResult(t *testing.T) {
	s, _ := newService(t, Config{Slots: 1, QueueCap: 4, CacheCap: 1})
	rc := disorderedConfig(0.1)
	_, lead, err := s.submit("lab", 0, rc, origin{})
	if err != nil {
		t.Fatal(err)
	}
	<-lead.done
	rec, j, err := s.submit("lab", 0, rc, origin{})
	if err != nil || !rec.CacheHit {
		t.Fatalf("resubmission: cache hit %v, err %v", rec.CacheHit, err)
	}
	other := disorderedConfig(0.1)
	other.Spec.DisorderSeed++
	_, evict, err := s.submit("lab", 0, other, origin{})
	if err != nil {
		t.Fatal(err)
	}
	<-evict.done
	if _, ok := s.cache.Get(rec.Key); ok {
		t.Fatal("a one-entry cache still holds the first artifact")
	}
	select {
	case <-j.done:
	default:
		t.Fatal("a cached answer's job is not done")
	}
	if j.result == nil || j.result != lead.result {
		t.Errorf("the cached answer carries %p, the run that produced it %p", j.result, lead.result)
	}
}

// TestStudyWarmStartLineage: member 0 of a study runs cold and every
// other member warm-starts from member 0's final state, named as its
// source run, whatever the daemon's slot count.
func TestStudyWarmStartLineage(t *testing.T) {
	const n = 4
	s, _ := newService(t, Config{QueueCap: 32})

	rec, _, err := s.submitStudy(studyRequest{
		Tenant: "lab", Members: n, BaseSeed: 7, Config: disorderedConfig(0.2),
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitForStudy(t, s, rec.ID, StatusDone)
	if final.WarmStarts != n-1 {
		t.Fatalf("WarmStarts = %d, want %d (members 1..%d seed from member 0)",
			final.WarmStarts, n-1, n-1)
	}
	donor := final.MemberRuns[0]
	for i, id := range final.MemberRuns {
		mr, _ := s.reg.runs.get(id)
		if i == 0 && mr.WarmStart {
			t.Error("member 0 warm-started")
		}
		if i > 0 && (!mr.WarmStart || mr.SourceRun != donor) {
			t.Errorf("member %d (%s): warm start %v from %q, want from member 0's run %s",
				i, id, mr.WarmStart, mr.SourceRun, donor)
		}
	}
}

// TestStudyBitsFollowRequest: one study request gives the bitwise-same
// members and moments on a fresh one-slot daemon, on three fresh two-slot
// daemons, on a daemon that has already solved runs of the study's warm
// family (other seeds, another bias — none of the study's own results),
// and in-process through ensemble.Study. A study member's seed is member
// 0's state, never whatever the daemon's warm cache holds when a slot
// pops it.
func TestStudyBitsFollowRequest(t *testing.T) {
	const n = 4
	req := studyRequest{Tenant: "lab", Members: n, BaseSeed: 7, Config: disorderedConfig(0.2)}
	onDaemon := func(slots int, neighbours []qt.RunConfig) *report.Ensemble {
		s, _ := newService(t, Config{Slots: slots, QueueCap: 32})
		for _, rc := range neighbours {
			_, j, err := s.submit("other", 0, rc, origin{})
			if err != nil {
				t.Fatal(err)
			}
			<-j.done
		}
		rec, _, err := s.submitStudy(req)
		if err != nil {
			t.Fatal(err)
		}
		final := waitForStudy(t, s, rec.ID, StatusDone)
		if final.CacheHits != 0 {
			t.Fatalf("%d members answered from the cache: the neighbours share an identity with the study", final.CacheHits)
		}
		return final.Report
	}
	var neighbours []qt.RunConfig
	for _, seed := range []uint64{100, 101} {
		rc := disorderedConfig(0.2)
		rc.Spec.DisorderSeed = seed
		neighbours = append(neighbours, rc)
	}
	for _, seed := range []uint64{7, 8} {
		rc := disorderedConfig(0.25)
		rc.Spec.DisorderSeed = seed
		neighbours = append(neighbours, rc)
	}

	local, err := (&ensemble.Study{Config: req.Config, Members: n, BaseSeed: req.BaseSeed}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := local.Report
	runs := map[string]*report.Ensemble{
		"1 slot":         onDaemon(1, nil),
		"2 slots, run 1": onDaemon(2, nil),
		"2 slots, run 2": onDaemon(2, nil),
		"2 slots, run 3": onDaemon(2, nil),
		"busy daemon":    onDaemon(2, neighbours),
	}
	for name, got := range runs {
		if got.Current != want.Current || got.Converged != want.Converged ||
			got.DOSMembers != want.DOSMembers || !reflect.DeepEqual(got.DOS, want.DOS) {
			t.Errorf("%s: moments %+v (%d converged), in-process %+v (%d converged)",
				name, got.Current, got.Converged, want.Current, want.Converged)
		}
		for i, row := range got.MemberRows {
			w := want.MemberRows[i]
			if math.Float64bits(row.Current) != math.Float64bits(w.Current) ||
				row.Iterations != w.Iterations || row.Start != w.Start {
				t.Errorf("%s: member %d current %v in %d iterations (%s), in-process %v in %d (%s)",
					name, i, row.Current, row.Iterations, row.Start, w.Current, w.Iterations, w.Start)
			}
		}
	}
}

// TestStudyStream exercises the SSE surface: the live submit stream
// carries study/member/done frames, and the replay of the finished
// study reproduces the same sequence.
func TestStudyStream(t *testing.T) {
	const n = 3
	s, ts := newService(t, Config{Slots: 2, QueueCap: 32})

	body, _ := json.Marshal(studyRequest{
		Tenant: "lab", Members: n, BaseSeed: 42, Config: disorderedConfig(0.15),
	})
	resp, err := http.Post(ts.URL+"/v1/ensembles?stream=sse", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	events, id := drainStudyStream(t, resp.Body)
	if events["study"] != 1 || events["done"] != 1 || events["member"] != n {
		t.Fatalf("live stream frames = %v, want 1 study / %d member / 1 done", events, n)
	}

	// Replay of the finished study yields the identical frame shape.
	waitForStudy(t, s, id, StatusDone)
	resp2, err := http.Get(ts.URL + "/v1/ensembles/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	replay, _ := drainStudyStream(t, resp2.Body)
	if replay["study"] != 1 || replay["done"] != 1 || replay["member"] != n {
		t.Fatalf("replay frames = %v, want 1 study / %d member / 1 done", replay, n)
	}

	// The report endpoint renders all three formats.
	for _, format := range []string{"text", "json", "csv"} {
		r3, err := http.Get(ts.URL + "/v1/ensembles/" + id + "/report?format=" + format)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r3.Body)
		r3.Body.Close()
		if r3.StatusCode != http.StatusOK || len(b) == 0 {
			t.Fatalf("report format=%s: status %d, %d bytes", format, r3.StatusCode, len(b))
		}
	}
}

// drainStudyStream counts SSE frames by event name and extracts the
// study id from the first frame.
func drainStudyStream(t *testing.T, r io.Reader) (map[string]int, string) {
	t.Helper()
	events := map[string]int{}
	var id string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			events[event]++
		case strings.HasPrefix(line, "data: ") && event == "study" && id == "":
			var rec studyRecord
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &rec); err != nil {
				t.Fatalf("decode study frame: %v", err)
			}
			id = rec.ID
		}
	}
	return events, id
}

// TestStudyValidation covers the request-shape rejections.
func TestStudyValidation(t *testing.T) {
	_, ts := newService(t, Config{Slots: 1, QueueCap: 8})

	for name, req := range map[string]studyRequest{
		"zero members": {Members: 0, Config: disorderedConfig(0.1)},
		"over cap":     {Members: maxStudyMembers + 1, Config: disorderedConfig(0.1)},
		"no profile":   {Members: 4, Config: convergingConfig(0.1)},
	} {
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/ensembles", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestStudyCancel cancels a running study and expects a terminal
// cancelled record without leaked members.
func TestStudyCancel(t *testing.T) {
	s, ts := newService(t, Config{Slots: 1, QueueCap: 64})

	cfg := disorderedConfig(0.3)
	cfg.MaxIterations = 60
	cfg.Tolerance = 1e-12 // members hold their slot for the full budget
	rec := postStudy(t, ts, studyRequest{
		Tenant: "lab", Members: 6, BaseSeed: 1, Config: cfg,
	}, http.StatusAccepted)
	waitForStudy(t, s, rec.ID, StatusRunning)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/ensembles/"+rec.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE study = %d, want 200", resp.StatusCode)
	}
	final := waitForStudy(t, s, rec.ID, StatusCancelled)
	if final.Finished.IsZero() {
		t.Error("cancelled study has no finish stamp")
	}
}

// TestStudyPersistence restarts the registry directory and expects the
// finished study (and its lineage) to survive, with member listing
// filtered by study id.
func TestStudyPersistence(t *testing.T) {
	dir := t.TempDir()
	s1, _ := newService(t, Config{Slots: 2, QueueCap: 32, DataDir: dir})
	rec, _, err := s1.submitStudy(studyRequest{
		Tenant: "lab", Members: 3, BaseSeed: 5, Config: disorderedConfig(0.25),
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitForStudy(t, s1, rec.ID, StatusDone)
	s1.Close()

	s2, err := New(Config{Slots: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok := s2.reg.studies.get(final.ID)
	if !ok {
		t.Fatalf("study %s lost across restart", final.ID)
	}
	if got.Status != StatusDone || got.Report == nil {
		t.Fatalf("reloaded study: status %s, report %v", got.Status, got.Report != nil)
	}
	if len(s2.reg.List(Query{Study: final.ID, Limit: 10})) != 3 {
		t.Error("member lineage lost across restart")
	}
}

// TestParentFormatStudyReopens: testdata/study-parent-format.json is a
// study record written before member rows said how each member started —
// its warm-started rows carry "warm_start": true. A data directory
// holding it must reopen, serve it as stored, render its report and mint
// the next study id after it.
func TestParentFormatStudyReopens(t *testing.T) {
	stored, err := os.ReadFile("testdata/study-parent-format.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(stored, []byte(`"warm_start": true`)) {
		t.Fatal("the fixture lost the field it exists to carry")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "study-000001.json"), stored, 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := newService(t, Config{Slots: 1, QueueCap: 8, DataDir: dir})
	old, ok := s.reg.studies.get("study-000001")
	if !ok || old.Status != StatusDone || old.Report == nil || len(old.Report.MemberRows) != 3 || old.Report.Current.N != 3 {
		t.Fatalf("reopened study: found %v, %+v", ok, old)
	}
	for _, format := range []string{"text", "json", "csv"} {
		resp, err := http.Get(ts.URL + "/v1/ensembles/study-000001/report?format=" + format)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.Contains(b, []byte("run-000003")) {
			t.Errorf("report format=%s: status %d: %s", format, resp.StatusCode, b)
		}
	}
	rec, _, err := s.submitStudy(studyRequest{Tenant: "lab", Members: 1, Config: disorderedConfig(0.1)})
	if err != nil {
		t.Fatal(err)
	}
	if rec.ID != "study-000002" {
		t.Errorf("new study got id %s, want the id after the stored one's", rec.ID)
	}
	waitForStudy(t, s, rec.ID, StatusDone)
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}
