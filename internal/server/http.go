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

// kind is one record kind of the HTTP surface — runs or ensemble
// studies, R their registry record and E the event their stream carries
// — and everything its handlers need that differs between the two.
type kind[R, E any] struct {
	// noun names one record in error texts and is the SSE head frame's
	// name; event names the frame of one streamed row.
	noun, event string
	recs        *table[R]
	// live returns the feed of a record not yet finalized.
	live func(id string) (*feed[E], bool)
	// cancel cancels a live record and returns it, whether it was live or
	// not; false means the id is unknown.
	cancel func(id string) (R, bool)
	// finished returns a record's report and the rows a replay of it
	// streams; the report is nil — a nil interface — until it has one.
	finished func(*R) (report.Encoder, []E)
}

// kinds builds the two record kinds the handlers serve.
func (s *Server) kinds() (*kind[Record, qt.IterStats], *kind[studyRecord, report.MemberRow]) {
	runs := &kind[Record, qt.IterStats]{
		noun: "run", event: "iter", recs: s.reg.runs,
		live: func(id string) (*feed[qt.IterStats], bool) {
			j, ok := s.jobByID(id)
			if !ok {
				return nil, false
			}
			return j.feed, true
		},
		cancel: s.cancelRun,
		finished: func(rec *Record) (report.Encoder, []qt.IterStats) {
			if rec.Report == nil {
				return nil, nil
			}
			return rec.Report, rec.Report.Trace
		},
	}
	studies := &kind[studyRecord, report.MemberRow]{
		noun: "study", event: "member", recs: s.reg.studies,
		live: func(id string) (*feed[report.MemberRow], bool) {
			st, ok := s.studyByID(id)
			if !ok {
				return nil, false
			}
			return st.feed, true
		},
		cancel: s.cancelStudy,
		finished: func(rec *studyRecord) (report.Encoder, []report.MemberRow) {
			if rec.Report == nil {
				return nil, nil
			}
			return rec.Report, rec.Report.MemberRows
		},
	}
	return runs, studies
}

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs", s.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", s.runKind.handleGet)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.runKind.handleCancel)
	mux.HandleFunc("GET /v1/runs/{id}/stream", s.runKind.handleStream)
	mux.HandleFunc("GET /v1/runs/{id}/report", s.runKind.handleReport)
	mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleTrace)
	mux.HandleFunc("POST /v1/ensembles", s.handleSubmitStudy)
	mux.HandleFunc("GET /v1/ensembles", s.handleListStudies)
	mux.HandleFunc("GET /v1/ensembles/{id}", s.studyKind.handleGet)
	mux.HandleFunc("DELETE /v1/ensembles/{id}", s.studyKind.handleCancel)
	mux.HandleFunc("GET /v1/ensembles/{id}/stream", s.studyKind.handleStream)
	mux.HandleFunc("GET /v1/ensembles/{id}/report", s.studyKind.handleReport)
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
	if !decodeRequest(w, r, &req, &req.Tenant) {
		return
	}
	stream := r.URL.Query().Get("stream") == "sse"

	rec, j, err := s.submit(req.Tenant, req.Priority, req.Config, origin{})
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.retryAfter().Seconds())))
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if rec.CacheHit { // answered from the content-addressed cache
		if stream {
			s.runKind.replay(w, rec)
			return
		}
		writeJSON(w, http.StatusOK, rec)
		return
	}
	if stream {
		// The submitting client owns the run: hanging up withdraws its
		// request, and the run is cancelled once no other request is
		// attached to it. When this request cancelled the run, the worker
		// still owns the finalization; wait so the registry reaches its
		// terminal state before we return (the connection is gone —
		// nothing more is written).
		s.runKind.stream(w, r, j.id, j.feed, func() {
			if s.release(j) {
				<-j.done
			}
		})
		return
	}
	writeJSON(w, http.StatusAccepted, rec)
}

// decodeRequest reads a POST body of at most 1 MiB into req and defaults
// the tenant it names to "anonymous". It answers 400 itself and reports
// false when the body does not decode.
func decodeRequest(w http.ResponseWriter, r *http.Request, req any, tenant *string) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return false
	}
	if *tenant == "" {
		*tenant = "anonymous"
	}
	return true
}

// List bounds: an unqualified list returns the newest defaultListLimit
// records, and an explicit ?limit= is clamped to maxListLimit — the
// registry can outgrow any single response.
const (
	defaultListLimit = 100
	maxListLimit     = 1000
)

// listLimit parses a list's ?limit=. It answers 400 itself and reports
// false when the value is not a positive integer.
func listLimit(w http.ResponseWriter, r *http.Request) (int, bool) {
	v := r.URL.Query().Get("limit")
	if v == "" {
		return defaultListLimit, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		writeError(w, http.StatusBadRequest, "bad limit %q", v)
		return 0, false
	}
	return min(n, maxListLimit), true
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	limit, ok := listLimit(w, r)
	if !ok {
		return
	}
	qp := r.URL.Query()
	recs := s.reg.List(Query{
		Tenant:  qp.Get("tenant"),
		Status:  Status(qp.Get("status")),
		Key:     qp.Get("key"),
		WarmKey: qp.Get("warm_key"),
		Study:   qp.Get("study"),
		Limit:   limit,
	})
	writeJSON(w, http.StatusOK, map[string]any{"runs": recs, "count": len(recs)})
}

// handleGet answers one record.
func (k *kind[R, E]) handleGet(w http.ResponseWriter, r *http.Request) {
	rec, ok := k.recs.get(r.PathValue("id"))
	if !ok {
		k.unknown(w, r)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleCancel cancels a live record and answers it.
func (k *kind[R, E]) handleCancel(w http.ResponseWriter, r *http.Request) {
	rec, ok := k.cancel(r.PathValue("id"))
	if !ok {
		k.unknown(w, r)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleStream attaches to a record's feed without owning it: a finished
// record replays its recorded rows, a live one streams from the current
// row on. Disconnecting cancels nothing.
func (k *kind[R, E]) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if f, ok := k.live(id); ok {
		k.stream(w, r, id, f, nil)
		return
	}
	rec, ok := k.recs.get(id)
	if !ok {
		k.unknown(w, r)
		return
	}
	k.replay(w, rec)
}

// handleReport renders a finished record's report in text/json/csv; 409
// until it has one.
func (k *kind[R, E]) handleReport(w http.ResponseWriter, r *http.Request) {
	rec, ok := k.recs.get(r.PathValue("id"))
	if !ok {
		k.unknown(w, r)
		return
	}
	rep, _ := k.finished(&rec)
	if rep == nil {
		id, status := k.recs.head(&rec)
		writeError(w, http.StatusConflict, "%s %s has no report (status %s)", k.noun, id, *status)
		return
	}
	f, err := report.ParseFormat(r.URL.Query().Get("format"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", f.ContentType())
	report.Write(w, f, rep)
}

// unknown answers 404 for the request's id.
func (k *kind[R, E]) unknown(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, "unknown %s %q", k.noun, r.PathValue("id"))
}

// handleTrace serves the Chrome trace-event artifact of a RunConfig.Trace run
// (load it in Perfetto / chrome://tracing). 409 distinguishes "run known
// but not traced (or not finished)" from an unknown id.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	b, ok := s.reg.getTrace(id)
	if !ok {
		if _, known := s.reg.runs.get(id); known {
			writeError(w, http.StatusConflict,
				"run %s has no trace (submit with config.trace=true and wait for completion)", id)
			return
		}
		s.runKind.unknown(w, r)
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

// handleSubmitStudy admits one ensemble study. With ?stream=sse the
// response is a live event stream ("study" admission frame, one "member"
// frame per completed realization, terminal "done" frame with the
// reduced report); disconnecting does NOT cancel the study — a study is
// a batch artifact, not an interactive session. Without streaming the
// queued record is returned with 202.
func (s *Server) handleSubmitStudy(w http.ResponseWriter, r *http.Request) {
	var req studyRequest
	if !decodeRequest(w, r, &req, &req.Tenant) {
		return
	}
	rec, st, err := s.submitStudy(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if r.URL.Query().Get("stream") == "sse" {
		s.studyKind.stream(w, r, st.id, st.feed, nil)
		return
	}
	writeJSON(w, http.StatusAccepted, rec)
}

func (s *Server) handleListStudies(w http.ResponseWriter, r *http.Request) {
	limit, ok := listLimit(w, r)
	if !ok {
		return
	}
	qp := r.URL.Query()
	tenant, status := qp.Get("tenant"), Status(qp.Get("status"))
	recs := s.reg.studies.list(limit, func(rec *studyRecord) bool {
		return (tenant == "" || rec.Tenant == tenant) && (status == "" || rec.Status == status)
	})
	writeJSON(w, http.StatusOK, map[string]any{"studies": recs, "count": len(recs)})
}
