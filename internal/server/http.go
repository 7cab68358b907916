package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/qt"
	"repro/internal/report"
)

// submitRequest is the POST /v1/runs body.
type submitRequest struct {
	Tenant   string       `json:"tenant"`
	Priority int          `json:"priority"`
	Config   qt.RunConfig `json:"config"`
}

// ServeHTTP makes the Server an http.Handler (what cmd/qtd mounts).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs", s.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/runs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/runs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleTrace)
	mux.HandleFunc("POST /v1/ensembles", s.handleSubmitStudy)
	mux.HandleFunc("GET /v1/ensembles", s.handleListStudies)
	mux.HandleFunc("GET /v1/ensembles/{id}", s.handleGetStudy)
	mux.HandleFunc("DELETE /v1/ensembles/{id}", s.handleCancelStudy)
	mux.HandleFunc("GET /v1/ensembles/{id}/stream", s.handleStudyStream)
	mux.HandleFunc("GET /v1/ensembles/{id}/report", s.handleStudyReport)
	mux.Handle("GET /metrics", s.met.reg.Handler())
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false) // a JSON API, not HTML: ">=" stays ">="
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.ServiceStats())
}

// handleSubmit admits one run. With ?stream=sse the response is a live
// server-sent event stream whose disconnection withdraws the request
// (see release); without it the queued (202) or cached (200) registry
// record is returned and the run proceeds detached. A request that
// joined a run in flight is queued too, and streams that run's rows.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if req.Tenant == "" {
		req.Tenant = "anonymous"
	}
	stream := r.URL.Query().Get("stream") == "sse"

	rec, j, err := s.submit(req.Tenant, req.Priority, req.Config, "")
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.retryAfter().Seconds())))
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if j == nil { // answered from the content-addressed cache
		if stream {
			replayRun(w, rec)
			return
		}
		writeJSON(w, http.StatusOK, rec)
		return
	}
	if stream {
		// The submitting client owns the run: hanging up cancels it.
		s.streamJob(w, r, j, true)
		return
	}
	writeJSON(w, http.StatusAccepted, rec)
}

// List bounds: an unqualified GET /v1/runs returns the newest
// defaultListLimit records, and an explicit ?limit= is clamped to
// maxListLimit — the registry can outgrow any single response.
const (
	defaultListLimit = 100
	maxListLimit     = 1000
)

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	qp := r.URL.Query()
	q := Query{
		Tenant:  qp.Get("tenant"),
		Status:  Status(qp.Get("status")),
		Key:     qp.Get("key"),
		WarmKey: qp.Get("warm_key"),
		Study:   qp.Get("study"),
		Limit:   defaultListLimit,
	}
	if v := qp.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		q.Limit = min(n, maxListLimit)
	}
	recs := s.reg.List(q)
	writeJSON(w, http.StatusOK, map[string]any{"runs": recs, "count": len(recs)})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown run %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.cancelRun(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown run %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleStream attaches to a run's telemetry without owning it: a
// finished run replays its recorded trace, a live one streams from the
// current iteration on. Disconnecting does not cancel the run.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if j, ok := s.jobByID(id); ok {
		s.streamJob(w, r, j, false)
		return
	}
	rec, ok := s.reg.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown run %q", id)
		return
	}
	replayRun(w, rec)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown run %q", r.PathValue("id"))
		return
	}
	if rec.Report == nil {
		writeError(w, http.StatusConflict, "run %s has no report (status %s)", rec.ID, rec.Status)
		return
	}
	f, err := report.ParseFormat(r.URL.Query().Get("format"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", f.ContentType())
	report.Write(w, f, rec.Report)
}

// handleTrace serves the Chrome trace-event artifact of a RunConfig.Trace run
// (load it in Perfetto / chrome://tracing). 409 distinguishes "run known
// but not traced (or not finished)" from an unknown id.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	b, ok := s.reg.getTrace(id)
	if !ok {
		if _, known := s.reg.get(id); known {
			writeError(w, http.StatusConflict,
				"run %s has no trace (submit with config.trace=true and wait for completion)", id)
			return
		}
		writeError(w, http.StatusNotFound, "unknown run %q", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// sseHeaders switches the response into a server-sent event stream and
// returns the flusher (nil if the transport cannot stream).
func sseHeaders(w http.ResponseWriter) http.Flusher {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "response writer cannot stream")
		return nil
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	return fl
}

// replayRun renders a finished run as the frame sequence a live stream
// produces: run, one iter per trace row, done.
func replayRun(w http.ResponseWriter, rec Record) {
	var trace []qt.IterStats
	if rec.Report != nil {
		trace = rec.Report.Trace
	}
	replayFeed(w, "run", "iter", rec, trace)
}

// streamJob streams a live run ("run", "iter"…, "done"). When ownCancel
// is set, the client hanging up withdraws its request — the
// submit-and-stream contract: the run is cancelled once no other request
// is attached to it.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, j *job, ownCancel bool) {
	var hangUp func()
	if ownCancel {
		hangUp = func() {
			// When this request cancelled the run, the worker still owns
			// the finalization; wait so the registry reaches its terminal
			// state before we return (the connection is gone — nothing
			// more is written).
			if s.release(j) {
				<-j.done
			}
		}
	}
	streamFeed(w, r, j.feed, "run", "iter", func() Record { rec, _ := s.reg.get(j.id); return rec }, hangUp)
}

// handleSubmitStudy admits one ensemble study. With ?stream=sse the
// response is a live event stream ("study" admission frame, one "member"
// frame per completed realization, terminal "done" frame with the
// reduced report); disconnecting does NOT cancel the study — a study is
// a batch artifact, not an interactive session. Without streaming the
// queued record is returned with 202.
func (s *Server) handleSubmitStudy(w http.ResponseWriter, r *http.Request) {
	var req studyRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if req.Tenant == "" {
		req.Tenant = "anonymous"
	}
	rec, st, err := s.submitStudy(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if r.URL.Query().Get("stream") == "sse" {
		s.streamStudy(w, r, st)
		return
	}
	writeJSON(w, http.StatusAccepted, rec)
}

func (s *Server) handleListStudies(w http.ResponseWriter, r *http.Request) {
	qp := r.URL.Query()
	q := studyQuery{
		Tenant: qp.Get("tenant"),
		Status: Status(qp.Get("status")),
		Limit:  defaultListLimit,
	}
	if v := qp.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		q.Limit = min(n, maxListLimit)
	}
	recs := s.reg.listStudies(q)
	writeJSON(w, http.StatusOK, map[string]any{"studies": recs, "count": len(recs)})
}

func (s *Server) handleGetStudy(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.reg.getStudy(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown study %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Server) handleCancelStudy(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.cancelStudy(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown study %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleStudyStream attaches to a study's member-completion feed: a
// finished study replays its recorded member rows, a live one streams
// from the current member on.
func (s *Server) handleStudyStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if st, ok := s.studyByID(id); ok {
		s.streamStudy(w, r, st)
		return
	}
	rec, ok := s.reg.getStudy(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown study %q", id)
		return
	}
	replayStudy(w, rec)
}

// handleStudyReport renders the reduced ensemble report in
// text/json/csv; 409 until the study reaches a terminal state.
func (s *Server) handleStudyReport(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.reg.getStudy(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown study %q", r.PathValue("id"))
		return
	}
	if rec.Report == nil {
		writeError(w, http.StatusConflict, "study %s has no report (status %s)", rec.ID, rec.Status)
		return
	}
	f, err := report.ParseFormat(r.URL.Query().Get("format"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", f.ContentType())
	report.Write(w, f, rec.Report)
}

// replayStudy renders a finished study as the frame sequence a live
// stream produces: study, one member row each, done.
func replayStudy(w http.ResponseWriter, rec studyRecord) {
	var rows []report.MemberRow
	if rec.Report != nil {
		rows = rec.Report.MemberRows
	}
	replayFeed(w, "study", "member", rec, rows)
}

// streamStudy streams a live study ("study", "member"…, "done" with the
// reduced report). Hanging up detaches without cancelling — a study is a
// batch artifact, not an interactive session.
func (s *Server) streamStudy(w http.ResponseWriter, r *http.Request, st *studyRun) {
	streamFeed(w, r, st.feed, "study", "member", func() studyRecord { rec, _ := s.reg.getStudy(st.id); return rec }, nil)
}
