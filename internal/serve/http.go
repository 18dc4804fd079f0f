package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// API summary (see SERVING.md for schemas and examples):
//
//	POST   /v1/jobs               submit a JobSpec → 202 JobStatus
//	GET    /v1/jobs               list jobs (submission order)
//	GET    /v1/jobs/{id}          one job's status
//	GET    /v1/jobs/{id}/results  NDJSON event stream (Event per line)
//	GET    /v1/jobs/{id}/timeline span timeline from the job's flight recorder
//	DELETE /v1/jobs/{id}          request cancellation
//	GET    /metrics               metrics snapshot (JSON; ?format=prometheus
//	                              for Prometheus text exposition)
//	GET    /healthz               liveness  (200 while the process runs)
//	GET    /readyz                readiness (Readiness JSON; 503 once
//	                              draining) — includes queue depth and
//	                              running jobs
//
// Every response carries an X-Request-Id (adopted from the request when sane,
// minted otherwise); a submission's request ID becomes the job's trace ID.
// Backpressure: a full job queue answers 429 with a Retry-After hint; a
// draining server answers 503 for submissions and readiness.

// maxSpecBytes bounds a submitted JobSpec body.
const maxSpecBytes = 1 << 20

// NewHandler returns the lvpd HTTP API over one manager.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) { handleSubmit(m, w, r) })
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) { writeJSON(w, http.StatusOK, m.List()) })
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, err := m.Job(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, job.Status())
	})
	mux.HandleFunc("GET /v1/jobs/{id}/results", func(w http.ResponseWriter, r *http.Request) { handleResults(m, w, r) })
	mux.HandleFunc("GET /v1/jobs/{id}/timeline", func(w http.ResponseWriter, r *http.Request) {
		job, err := m.Job(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, job.Timeline())
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := m.Cancel(r.PathValue("id")); err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		job, err := m.Job(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, job.Status())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		m.FinalizeMetrics()
		if r.URL.Query().Get("format") == "prometheus" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			m.Metrics().WritePrometheus(w, "lvp")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		m.Metrics().WriteJSON(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		rd := m.Readiness()
		code := http.StatusOK
		if rd.Draining {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, rd)
	})
	return withTelemetry(m, m.cfg.AccessLog, mux)
}

func handleSubmit(m *Manager, w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad job spec: %w", err))
		return
	}
	job, err := m.SubmitTraced(spec, RequestIDFromContext(r.Context()))
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(m)))
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.Status())
}

// retryAfterSeconds renders the manager's hint as whole seconds (minimum 1,
// the header's resolution).
func retryAfterSeconds(m *Manager) int {
	return max(1, int(m.RetryAfter().Seconds()))
}

// handleResults streams a job's events as NDJSON: one "cell" event per cell
// in index order (waiting for each cell as needed, flushing as lines become
// available), then one "done" event carrying the terminal state. The stream
// also ends early — without a "done" line — if the client disconnects.
func handleResults(m *Manager, w http.ResponseWriter, r *http.Request) {
	job, err := m.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(ev Event) bool {
		if err := enc.Encode(ev); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	for i := range job.Cells {
		select {
		case <-job.ready[i]:
		case <-r.Context().Done():
			return
		case <-job.Done():
			// Terminal: this cell either finished in the same instant
			// or will never run (cancellation/timeout skipped it).
			select {
			case <-job.ready[i]:
			default:
				goto terminal
			}
		}
		out := job.outcome(i)
		if !emit(Event{Type: "cell", Index: i, Cell: &job.Cells[i], Result: out.result, Error: out.err}) {
			return
		}
	}
terminal:
	select {
	case <-job.Done():
	case <-r.Context().Done():
		return
	}
	st := job.Status()
	emit(Event{Type: "done", State: st.State, Error: st.Error})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
