// Package client is the Go client for lvpd, the LVP experiment daemon
// (cmd/lvpd, SERVING.md). It submits experiment jobs, follows their NDJSON
// result streams, and retries transient failures — connection errors,
// 429 queue-full rejections (honouring Retry-After), and 502/503/504 —
// with capped exponential backoff.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"lvp/internal/obs"
	"lvp/internal/serve"
)

// Wire types, shared with the server so the schema lives in one place.
type (
	// JobSpec describes one experiment job (see serve.JobSpec).
	JobSpec = serve.JobSpec
	// JobStatus is a job lifecycle snapshot.
	JobStatus = serve.JobStatus
	// Cell is one unit of work inside a job.
	Cell = serve.Cell
	// Event is one line of a job's NDJSON result stream.
	Event = serve.Event
	// Timeline is a job's span timeline (serve.Timeline): the spans the
	// server's per-job flight recorder still holds, ordered by start time.
	Timeline = serve.Timeline
	// TimelineSpan is one completed span in a Timeline.
	TimelineSpan = serve.TimelineSpan
)

// Job states, re-exported for switch statements on JobStatus.State.
const (
	StateQueued    = serve.StateQueued
	StateRunning   = serve.StateRunning
	StateDone      = serve.StateDone
	StateFailed    = serve.StateFailed
	StateCancelled = serve.StateCancelled
)

// RetryPolicy caps and paces a client's retries. The delay before retry n
// (0-based) is BaseDelay·2ⁿ, capped at MaxDelay; a server Retry-After hint
// overrides the computed delay when larger. With Jitter set, the computed
// delay is full-jittered — drawn uniformly from [0, BaseDelay·2ⁿ] — so
// many clients recovering from the same rejection never retry in
// lockstep; the Retry-After hint stays a hard floor under the jittered
// value.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first attempt included).
	// Values below 1 mean 1 (no retries).
	MaxAttempts int
	BaseDelay   time.Duration
	MaxDelay    time.Duration
	// Jitter enables full-jitter on the capped-exponential delay.
	Jitter bool
}

// DefaultRetry is the policy New installs: 5 attempts, 100ms–2s backoff,
// full-jitter.
var DefaultRetry = RetryPolicy{MaxAttempts: 5, BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second, Jitter: true}

func (p RetryPolicy) attempts() int { return max(1, p.MaxAttempts) }

// delay computes the deterministic pause before retry attempt (0-based),
// with the server's Retry-After hint (0 if absent) taking precedence when
// larger. Jitter is applied on top by sleepFor.
func (p RetryPolicy) delay(attempt int, retryAfter time.Duration) time.Duration {
	d := p.BaseDelay << attempt
	if p.BaseDelay > 0 && d < p.BaseDelay { // shift overflow
		d = p.MaxDelay
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	return max(d, retryAfter)
}

// sleepFor is the pause actually slept before retry attempt (0-based):
// the capped-exponential delay, full-jittered when the policy asks for it,
// never below the server's Retry-After hint.
func (p RetryPolicy) sleepFor(attempt int, retryAfter time.Duration) time.Duration {
	d := p.delay(attempt, retryAfter)
	if !p.Jitter || d <= 0 {
		return d
	}
	jittered := time.Duration(rand.Int64N(int64(p.delay(attempt, 0)) + 1))
	return max(jittered, retryAfter)
}

// Client talks to one lvpd instance. The zero value is not usable; call
// New.
type Client struct {
	base  *url.URL
	http  *http.Client
	retry RetryPolicy
}

// New returns a client for the daemon at baseURL (e.g.
// "http://localhost:8347") with DefaultRetry and the default HTTP client.
func New(baseURL string) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: bad base URL %q: %w", baseURL, err)
	}
	return &Client{base: u, http: http.DefaultClient, retry: DefaultRetry}, nil
}

// WithRetry replaces the retry policy and returns the client.
func (c *Client) WithRetry(p RetryPolicy) *Client { c.retry = p; return c }

// WithHTTPClient replaces the underlying *http.Client and returns the
// client.
func (c *Client) WithHTTPClient(h *http.Client) *Client { c.http = h; return c }

// StatusError is a non-2xx API response.
type StatusError struct {
	Code    int
	Message string

	// retryAfter carries the server's Retry-After hint to the backoff
	// computation.
	retryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.Code, e.Message)
}

// retryable reports whether an attempt may be retried: transport errors
// (the request never completed) and explicit backpressure / transient
// server codes.
func retryable(err error, code int) bool {
	if err != nil {
		return true
	}
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// do runs one request with retries and decodes a 2xx JSON body into out.
// body is re-sent on every attempt.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	var lastErr error
	for attempt := 0; attempt < c.retry.attempts(); attempt++ {
		if attempt > 0 {
			if err := sleep(ctx, c.retry.sleepFor(attempt-1, retryAfterHint(lastErr))); err != nil {
				return err
			}
		}
		resp, err := c.send(ctx, method, path, body)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return err
			}
			continue
		}
		data, code, err := readAll(resp)
		if err != nil {
			lastErr = err
			continue
		}
		if code >= 200 && code < 300 {
			if out == nil {
				return nil
			}
			return json.Unmarshal(data, out)
		}
		lastErr = &StatusError{Code: code, Message: apiError(data), retryAfter: parseRetryAfter(resp)}
		if !retryable(nil, code) {
			return lastErr
		}
	}
	return fmt.Errorf("client: giving up after %d attempts: %w", c.retry.attempts(), lastErr)
}

func (c *Client) send(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	u := c.base.JoinPath(path)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u.String(), rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the caller's trace identity so the server's spans for
	// this request carry the same trace ID.
	if id := obs.TraceID(ctx); id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	return c.http.Do(req)
}

func readAll(resp *http.Response) (data []byte, code int, err error) {
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// apiError extracts the {"error": ...} message from an error body.
func apiError(data []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(data))
}

func parseRetryAfter(resp *http.Response) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// retryAfterHint pulls the Retry-After duration out of a StatusError.
func retryAfterHint(err error) time.Duration {
	var se *StatusError
	if errors.As(err, &se) {
		return se.retryAfter
	}
	return 0
}

func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Submit submits a job and returns its accepted status (State "queued").
// Queue-full rejections are retried under the client's policy, honouring
// the server's Retry-After hint.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return JobStatus{}, fmt.Errorf("client: encoding spec: %w", err)
	}
	var st JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", body, &st); err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// Status fetches one job's status.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// List fetches every job's status in submission order.
func (c *Client) List(ctx context.Context) ([]JobStatus, error) {
	var out []JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Cancel requests cancellation of a job.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st); err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// Timeline fetches a job's span timeline — the per-job flight record behind
// GET /v1/jobs/{id}/timeline. It works for running and finished jobs alike
// and does not require tracing to be enabled on the server.
func (c *Client) Timeline(ctx context.Context, id string) (Timeline, error) {
	var tl Timeline
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/timeline", nil, &tl); err != nil {
		return Timeline{}, err
	}
	return tl, nil
}

// Ready reports whether the server is accepting jobs (readyz).
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", nil, nil)
}

// Stream follows a job's NDJSON result stream, calling fn for every event
// (cells in index order, then the terminal "done" event). fn returning an
// error stops the stream and returns that error. Connecting is retried
// under the client's policy; a stream broken mid-flight is not resumed.
func (c *Client) Stream(ctx context.Context, id string, fn func(Event) error) error {
	var resp *http.Response
	var lastErr error
	for attempt := 0; attempt < c.retry.attempts(); attempt++ {
		if attempt > 0 {
			if err := sleep(ctx, c.retry.sleepFor(attempt-1, retryAfterHint(lastErr))); err != nil {
				return err
			}
		}
		r, err := c.send(ctx, http.MethodGet, "/v1/jobs/"+id+"/results", nil)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return err
			}
			continue
		}
		if r.StatusCode != http.StatusOK {
			data, code, _ := readAll(r)
			lastErr = &StatusError{Code: code, Message: apiError(data), retryAfter: parseRetryAfter(r)}
			if !retryable(nil, code) {
				return lastErr
			}
			continue
		}
		resp = r
		break
	}
	if resp == nil {
		return fmt.Errorf("client: giving up after %d attempts: %w", c.retry.attempts(), lastErr)
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("client: bad stream line: %w", err)
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("client: stream interrupted: %w", err)
	}
	return nil
}

// Run is the convenience round trip: submit, stream, collect. It returns
// the per-cell events (in cell-index order) and the job's terminal status.
// A job that ends failed or cancelled is reported as an error alongside
// whatever cells completed.
func (c *Client) Run(ctx context.Context, spec JobSpec) ([]Event, JobStatus, error) {
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, JobStatus{}, err
	}
	var cells []Event
	var final string
	var finalErr string
	err = c.Stream(ctx, st.ID, func(ev Event) error {
		switch ev.Type {
		case "cell":
			cells = append(cells, ev)
		case "done":
			final, finalErr = ev.State, ev.Error
		}
		return nil
	})
	if err != nil {
		return cells, JobStatus{}, err
	}
	status, err := c.Status(ctx, st.ID)
	if err != nil {
		return cells, JobStatus{}, err
	}
	if final != StateDone {
		return cells, status, fmt.Errorf("client: job %s ended %s: %s", st.ID, final, finalErr)
	}
	return cells, status, nil
}
