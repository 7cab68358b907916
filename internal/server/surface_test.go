package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"
)

// surfaceKind is one record kind as a client addresses it.
type surfaceKind struct {
	path       string // collection path
	noun       string // the error texts' name for one record
	head, each string // SSE frame names: the head frame and one per event
	rows       string // the report field a replay emits one event frame per entry of
	unknown    string // an id no record has
	body       any    // a well-formed POST body
}

// TestHTTPSurfacePerKind pins what a client observes of runs and ensemble
// studies — status, Content-Type and body — for the unknown-id, unfinished,
// bad-format, bad-limit and malformed-body answers, and the frame sequence
// a finished record's /stream replays. It speaks HTTP only, so it holds
// whatever shape the handlers behind the routes take.
func TestHTTPSurfacePerKind(t *testing.T) {
	_, ts := newService(t, Config{Slots: 1, QueueCap: 16})
	kinds := []surfaceKind{
		{"/v1/runs", "run", "run", "iter", "trace", "run-999999",
			submitRequest{Tenant: "acme", Config: convergingConfig(0.21)}},
		{"/v1/ensembles", "study", "study", "member", "member_rows", "study-999999",
			studyRequest{Tenant: "lab", Members: 2, BaseSeed: 7, Config: disorderedConfig(0.15)}},
	}
	// One finished record of each kind, then a run holding the one slot,
	// so a second record of each kind stays unfinished.
	finished := map[string]string{}
	for _, k := range kinds {
		finished[k.path] = postHTTP(t, ts.URL+k.path, k.body)
		awaitHTTP(t, ts.URL+k.path+"/"+finished[k.path], StatusDone)
	}
	blocker := postHTTP(t, ts.URL+"/v1/runs", submitRequest{Tenant: "blocker", Config: busyConfig(0.10, 500)})
	awaitHTTP(t, ts.URL+"/v1/runs/"+blocker, StatusRunning)
	queuedRun := postHTTP(t, ts.URL+"/v1/runs", submitRequest{Tenant: "acme", Config: convergingConfig(0.23)})
	runningStudy := postHTTP(t, ts.URL+"/v1/ensembles",
		studyRequest{Tenant: "lab", Members: 2, BaseSeed: 9, Config: disorderedConfig(0.17)})
	awaitHTTP(t, ts.URL+"/v1/ensembles/"+runningStudy, StatusRunning)
	unfinished := map[string]string{"/v1/runs": queuedRun + " has no report (status queued)",
		"/v1/ensembles": runningStudy + " has no report (status running)"}
	unfinishedID := map[string]string{"/v1/runs": queuedRun, "/v1/ensembles": runningStudy}

	errJSON := func(msg string) string { return "{\n  \"error\": " + msg + "\n}\n" }
	const jsonCT = "application/json"
	for _, k := range kinds {
		quoted := `\"` + k.unknown + `\"`
		cases := []struct {
			method, url, body string
			code              int
			want              string
		}{
			{"GET", k.path + "/" + k.unknown, "", 404, errJSON(`"unknown ` + k.noun + ` ` + quoted + `"`)},
			{"DELETE", k.path + "/" + k.unknown, "", 404, errJSON(`"unknown ` + k.noun + ` ` + quoted + `"`)},
			{"GET", k.path + "/" + k.unknown + "/stream", "", 404, errJSON(`"unknown ` + k.noun + ` ` + quoted + `"`)},
			{"GET", k.path + "/" + k.unknown + "/report", "", 404, errJSON(`"unknown ` + k.noun + ` ` + quoted + `"`)},
			{"GET", k.path + "/" + unfinishedID[k.path] + "/report", "", 409, errJSON(`"` + k.noun + ` ` + unfinished[k.path] + `"`)},
			{"GET", k.path + "/" + finished[k.path] + "/report?format=xml", "", 400,
				errJSON(`"report: unknown format \"xml\" (want text, json, or csv)"`)},
			{"GET", k.path + "?limit=0", "", 400, errJSON(`"bad limit \"0\""`)},
			{"GET", k.path + "?limit=x", "", 400, errJSON(`"bad limit \"x\""`)},
			{"POST", k.path, "{", 400, errJSON(`"decode request: unexpected EOF"`)},
		}
		for _, c := range cases {
			code, ct, body := doHTTP(t, c.method, ts.URL+c.url, c.body)
			if code != c.code || ct != jsonCT || body != c.want {
				t.Errorf("%s %s = %d %q\n%s\nwant %d %q\n%s", c.method, c.url, code, ct, body, c.code, jsonCT, c.want)
			}
		}

		// A finished record: GET and DELETE answer it as stored, and its
		// stream replays head, one frame per recorded row, done.
		url := ts.URL + k.path + "/" + finished[k.path]
		_, _, stored := doHTTP(t, "GET", url, "")
		if code, ct, body := doHTTP(t, "DELETE", url, ""); code != 200 || ct != jsonCT || body != stored {
			t.Errorf("DELETE finished %s = %d %q\n%s\nwant the stored record\n%s", k.noun, code, ct, body, stored)
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(stored), &rec); err != nil {
			t.Fatal(err)
		}
		rows, _ := rec["report"].(map[string]any)[k.rows].([]any)
		want := []sseFrame{{k.head, stored}}
		for _, row := range rows {
			b, _ := json.Marshal(row)
			want = append(want, sseFrame{k.each, string(b)})
		}
		want = append(want, sseFrame{"done", stored})

		resp, err := http.Get(url + "/stream")
		if err != nil {
			t.Fatal(err)
		}
		got := collectSSE(t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "text/event-stream" || len(rows) == 0 {
			t.Errorf("stream finished %s = %d %q with %d rows", k.noun, resp.StatusCode, resp.Header.Get("Content-Type"), len(rows))
		}
		if len(got) != len(want) {
			t.Fatalf("stream finished %s: %d frames, want %d", k.noun, len(got), len(want))
		}
		for i := range want {
			var g, w any
			json.Unmarshal([]byte(got[i].data), &g)
			json.Unmarshal([]byte(want[i].data), &w)
			if got[i].event != want[i].event || !reflect.DeepEqual(g, w) {
				t.Errorf("stream finished %s frame %d = %s %s\nwant %s %s", k.noun, i, got[i].event, got[i].data, want[i].event, want[i].data)
			}
		}
	}
}

// doHTTP sends one request and returns status, Content-Type and body.
func doHTTP(t *testing.T, method, url, body string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(b)
}

// postHTTP submits body and returns the admitted record's id.
func postHTTP(t *testing.T, url string, body any) string {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rec struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil || rec.ID == "" {
		t.Fatalf("POST %s = %d, no record (%v)", url, resp.StatusCode, err)
	}
	return rec.ID
}

// awaitHTTP polls a record's GET until it reports the wanted status.
func awaitHTTP(t *testing.T, url string, want Status) {
	t.Helper()
	var rec struct{ Status Status }
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		_, _, body := doHTTP(t, "GET", url, "")
		if json.Unmarshal([]byte(body), &rec) == nil && rec.Status == want {
			return
		}
	}
	t.Fatalf("%s stuck in status %s, want %s", url, rec.Status, want)
}
