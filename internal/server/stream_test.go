package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"testing"
)

// sseFrame is one server-sent event as it crossed the wire.
type sseFrame struct{ event, data string }

func collectSSE(t *testing.T, r io.Reader) []sseFrame {
	t.Helper()
	var frames []sseFrame
	if err := readSSE(r, func(event string, data []byte) bool {
		frames = append(frames, sseFrame{event, string(data)})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return frames
}

// frameData returns the payloads of the frames named event, in order.
func frameData(frames []sseFrame, event string) []string {
	var out []string
	for _, f := range frames {
		if f.event == event {
			out = append(out, f.data)
		}
	}
	return out
}

// TestReplayedStreamMatchesLive: the live stream of a run or study and
// the replay of the finished one go through one method pair (kind.stream,
// kind.replay) and must put the same frames on the wire — the head frame
// aside, which a live stream sends at admission. Iteration frames keep
// their order; member frames arrive in completion order live and in
// member order on replay, so they compare as sets.
func TestReplayedStreamMatchesLive(t *testing.T) {
	s, ts := newService(t, Config{Slots: 2, QueueCap: 32})

	live := func(url string, body any) []sseFrame {
		b, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+url+"?stream=sse", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return collectSSE(t, resp.Body)
	}
	replay := func(url string) []sseFrame {
		resp, err := http.Get(ts.URL + url + "/stream")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return collectSSE(t, resp.Body)
	}
	names := func(frames []sseFrame) []string {
		var out []string
		for _, f := range frames {
			out = append(out, f.event)
		}
		return out
	}

	runLive := live("/v1/runs", submitRequest{Tenant: "acme", Config: convergingConfig(0.21)})
	var rec Record
	if len(runLive) < 3 || json.Unmarshal([]byte(runLive[0].data), &rec) != nil || rec.ID == "" {
		t.Fatalf("live run stream malformed: %v", names(runLive))
	}
	waitForStatus(t, s, rec.ID, StatusDone)
	runReplay := replay("/v1/runs/" + rec.ID)
	if !slices.Equal(names(runLive), names(runReplay)) {
		t.Errorf("run frame names: live %v, replay %v", names(runLive), names(runReplay))
	}
	if !slices.Equal(frameData(runLive, "iter"), frameData(runReplay, "iter")) {
		t.Errorf("run iter frames differ between live and replay")
	}
	if !slices.Equal(frameData(runLive, "done"), frameData(runReplay, "done")) {
		t.Errorf("run done frame differs:\n live   %v\n replay %v", frameData(runLive, "done"), frameData(runReplay, "done"))
	}

	studyLive := live("/v1/ensembles", studyRequest{Tenant: "lab", Members: 3, BaseSeed: 7, Config: disorderedConfig(0.15)})
	var srec studyRecord
	if len(studyLive) < 3 || json.Unmarshal([]byte(studyLive[0].data), &srec) != nil || srec.ID == "" {
		t.Fatalf("live study stream malformed: %v", names(studyLive))
	}
	waitForStudy(t, s, srec.ID, StatusDone)
	studyReplay := replay("/v1/ensembles/" + srec.ID)
	if !slices.Equal(names(studyLive), names(studyReplay)) {
		t.Errorf("study frame names: live %v, replay %v", names(studyLive), names(studyReplay))
	}
	liveRows, replayRows := frameData(studyLive, "member"), frameData(studyReplay, "member")
	slices.Sort(liveRows)
	slices.Sort(replayRows)
	if len(liveRows) != 3 || !slices.Equal(liveRows, replayRows) {
		t.Errorf("study member frames differ:\n live   %v\n replay %v", liveRows, replayRows)
	}
	if !slices.Equal(frameData(studyLive, "done"), frameData(studyReplay, "done")) {
		t.Errorf("study done frame differs between live and replay")
	}
}
