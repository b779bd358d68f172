package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"github.com/reds-go/reds/internal/admission"
	"github.com/reds-go/reds/internal/telemetry"
)

// RemoteExecutor runs requests on a redsserver worker through the
// internal execution API: POST starts the execution, GET long-polls
// progress until a terminal status, DELETE cancels (and acknowledges
// terminal polls so the worker can release the entry early).
//
// Failures split into two classes the caller can tell apart:
//
//   - the worker is unreachable or has lost the execution (connection
//     errors, 5xx, an unknown execution id after a worker restart) —
//     wrapped in ErrUnavailable, safe for a dispatcher to re-route;
//   - the request itself failed on the worker (a failed execution, a
//     400) — returned as a plain error that must not be retried
//     elsewhere.
type RemoteExecutor struct {
	// BaseURL is the worker's root, e.g. "http://10.0.0.7:8080".
	BaseURL string
	// Client defaults to a client with a 10s per-request timeout. The
	// timeout bounds individual polls, not the whole execution.
	Client *http.Client
	// PollInterval is the longest a worker holds a status poll (default
	// 150ms): a held poll returns early when the execution turns
	// terminal or advertises a new checkpoint. A running execution's
	// checkpoint is fetched once its seq has been advertised this long.
	PollInterval time.Duration
	// AttemptTimeout bounds every individual HTTP call with its own
	// context deadline (default 10s). A worker that accepts the TCP
	// connection but never responds therefore costs one attempt, not the
	// whole dispatch slot.
	AttemptTimeout time.Duration
	// MaxAttempts is the retry budget per logical operation — one start,
	// one poll (default 3). Only transient failures (connection errors,
	// 5xx) consume retries; definitive answers (400, 404-after-restart)
	// return immediately.
	MaxAttempts int
	// RetryBaseDelay is the first backoff delay (default 100ms); each
	// retry doubles it with ±50% jitter, capped at RetryMaxDelay
	// (default 2s).
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// OnRetry, when non-nil, is invoked before each retry sleep with the
	// operation name ("start", "poll"). The dispatcher wires it to the
	// reds_cluster_retry_attempts_total counter.
	OnRetry func(op string)
	// InternalSecret is sent on every internal-API request in the
	// X-Reds-Internal-Secret header. Must match the worker's
	// -internal.secret; empty sends no header (open single-tenant
	// deployments).
	InternalSecret string
}

// setAuth attaches the shared internal secret to an internal-API
// request (no-op when none is configured).
func (r *RemoteExecutor) setAuth(hreq *http.Request) {
	if r.InternalSecret != "" {
		hreq.Header.Set(admission.InternalSecretHeader, r.InternalSecret)
	}
}

func (r *RemoteExecutor) client() *http.Client {
	if r.Client != nil {
		return r.Client
	}
	return defaultRemoteClient
}

var defaultRemoteClient = &http.Client{Timeout: 10 * time.Second}

func (r *RemoteExecutor) pollInterval() time.Duration {
	if r.PollInterval > 0 {
		return r.PollInterval
	}
	return 150 * time.Millisecond
}

// pollWait is how long a status poll asks the worker to hold it:
// PollInterval, clamped to half the per-attempt deadline and half the
// client timeout, so a healthy hold never reads as a transient failure.
func (r *RemoteExecutor) pollWait() time.Duration {
	wait := min(r.pollInterval(), r.attemptTimeout()/2)
	if t := r.client().Timeout; t > 0 {
		wait = min(wait, t/2)
	}
	return wait
}

func (r *RemoteExecutor) attemptTimeout() time.Duration {
	if r.AttemptTimeout > 0 {
		return r.AttemptTimeout
	}
	return 10 * time.Second
}

func (r *RemoteExecutor) maxAttempts() int {
	if r.MaxAttempts > 0 {
		return r.MaxAttempts
	}
	return 3
}

func (r *RemoteExecutor) retryBaseDelay() time.Duration {
	if r.RetryBaseDelay > 0 {
		return r.RetryBaseDelay
	}
	return 100 * time.Millisecond
}

func (r *RemoteExecutor) retryMaxDelay() time.Duration {
	if r.RetryMaxDelay > 0 {
		return r.RetryMaxDelay
	}
	return 2 * time.Second
}

// withRetry runs one logical operation with per-attempt deadlines and
// jittered exponential backoff. fn executes each attempt under its own
// deadline-bounded context and reports whether its failure is worth
// retrying; the final attempt's error is returned as-is, so the
// ErrUnavailable classification of the underlying call survives.
func (r *RemoteExecutor) withRetry(ctx context.Context, op string, fn func(ctx context.Context) (retry bool, err error)) error {
	delay := r.retryBaseDelay()
	for attempt := 1; ; attempt++ {
		actx, cancel := context.WithTimeout(ctx, r.attemptTimeout())
		retry, err := fn(actx)
		cancel()
		if err == nil || !retry || attempt >= r.maxAttempts() || ctx.Err() != nil {
			return err
		}
		if r.OnRetry != nil {
			r.OnRetry(op)
		}
		// Full jitter around the exponential midpoint: [delay/2, 3*delay/2).
		sleep := delay/2 + time.Duration(rand.Int63n(int64(delay)))
		select {
		case <-ctx.Done():
			return err
		case <-time.After(sleep):
		}
		if delay *= 2; delay > r.retryMaxDelay() {
			delay = r.retryMaxDelay()
		}
	}
}

func (r *RemoteExecutor) execURL(id string) string {
	u := strings.TrimRight(r.BaseURL, "/") + "/internal/v1/execute"
	if id != "" {
		u += "/" + id
	}
	return u
}

// Execute implements Executor over the internal HTTP API.
func (r *RemoteExecutor) Execute(ctx context.Context, req Request, onProgress func(Progress)) (*Result, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("engine: encoding remote request: %w", err)
	}
	id, err := r.start(ctx, body)
	if err != nil {
		if ctx.Err() != nil {
			// Canceled mid-POST. The worker may or may not have accepted
			// the execution; if it did, its retention GC reclaims the
			// orphan (we never learned the id to DELETE it).
			return nil, ctx.Err()
		}
		return nil, err
	}

	wait := r.pollWait()
	var (
		last   Progress
		lastCP *Checkpoint
		// seq is the newest checkpoint seq the worker advertised;
		// cpDue, when set, is when a running execution's unfetched seq
		// will have been advertised for one wait and its snapshot is
		// fetched.
		seq   uint64
		cpDue time.Time
	)
	for {
		hold := wait
		if !cpDue.IsZero() {
			hold = max(min(hold, time.Until(cpDue)), 0)
		}
		sent := time.Now()
		st, err := r.poll(ctx, id, hold, seq)
		if err != nil {
			if ctx.Err() != nil {
				r.release(id)
				return nil, ctx.Err()
			}
			return nil, err
		}
		news := st.Status.Terminal() || st.CheckpointSeq > seq
		seq = max(seq, st.CheckpointSeq)
		// A new checkpoint seq means the worker has more resumable work
		// recorded. Fetch the snapshot (so the dispatcher can forward it
		// if this worker dies) only once a running execution has kept
		// advertising it for one wait: a job that finishes sooner never
		// ships the checkpoint it finished past, and a terminal one never
		// needs it. Best-effort: a failed fetch leaves lastCP behind and
		// re-arms for the next wait.
		if !st.Status.Terminal() && seq > lastCP.seq() {
			if cpDue.IsZero() {
				cpDue = time.Now().Add(wait)
			} else if !time.Now().Before(cpDue) {
				if cp, err := r.fetchCheckpoint(ctx, id); err == nil && cp != nil {
					lastCP = cp
					seq = max(seq, cp.Seq)
				}
				cpDue = time.Time{}
			}
		}
		st.Progress.Checkpoint = lastCP
		if onProgress != nil && !st.Progress.sameAs(last) {
			last = st.Progress
			onProgress(st.Progress)
		}
		switch st.Status {
		case StatusDone:
			r.release(id)
			if st.Result == nil {
				return nil, fmt.Errorf("engine: worker %s reported done without a result: %w", r.BaseURL, ErrUnavailable)
			}
			return st.Result, nil
		case StatusFailed:
			r.release(id)
			if st.Error == "" {
				st.Error = "remote execution failed"
			}
			return nil, errors.New(st.Error)
		case StatusCanceled:
			// The worker canceled without us asking (it is shutting
			// down); from the gateway's view the worker went away.
			return nil, fmt.Errorf("engine: worker %s canceled the execution: %w", r.BaseURL, ErrUnavailable)
		}
		// A worker that ignores wait answers at once; sleep out the rest
		// of the hold so it is polled no faster than once a wait.
		if rest := hold - time.Since(sent); !news && rest > 0 {
			select {
			case <-ctx.Done():
				r.release(id)
				return nil, ctx.Err()
			case <-time.After(rest):
			}
		}
	}
}

// start POSTs the request and returns the execution id. Transient
// failures (connection errors, 5xx) are retried within the budget,
// each attempt under its own deadline.
func (r *RemoteExecutor) start(ctx context.Context, body []byte) (string, error) {
	var id string
	err := r.withRetry(ctx, "start", func(actx context.Context) (bool, error) {
		hreq, err := http.NewRequestWithContext(actx, http.MethodPost, r.execURL(""), bytes.NewReader(body))
		if err != nil {
			return false, fmt.Errorf("engine: building remote request: %w", err)
		}
		hreq.Header.Set("Content-Type", "application/json")
		r.setAuth(hreq)
		if rid := telemetry.RequestID(ctx); rid != "" {
			// Continue the caller's trace on the worker: its execution log
			// lines and span records carry the same id as ours.
			hreq.Header.Set(telemetry.RequestIDHeader, rid)
		}
		resp, err := r.client().Do(hreq)
		if err != nil {
			return true, fmt.Errorf("engine: starting execution on %s: %v: %w", r.BaseURL, err, ErrUnavailable)
		}
		defer drainClose(resp.Body)
		switch {
		case resp.StatusCode == http.StatusBadRequest:
			// A verdict about the request: retrying (here or elsewhere)
			// cannot change it.
			return false, fmt.Errorf("engine: worker %s rejected the request: %s", r.BaseURL, readAPIError(resp.Body))
		case resp.StatusCode == http.StatusUnauthorized || resp.StatusCode == http.StatusForbidden:
			// A secret mismatch is a deployment misconfiguration, not a
			// worker outage: deliberately NOT ErrUnavailable, so the job
			// fails loudly instead of burning the failover chain on every
			// equally misconfigured worker.
			return false, fmt.Errorf("engine: worker %s refused the internal secret (%s): check -internal.secret on both sides", r.BaseURL, resp.Status)
		case resp.StatusCode >= 500:
			return true, fmt.Errorf("engine: worker %s returned %s: %w", r.BaseURL, resp.Status, ErrUnavailable)
		case resp.StatusCode != http.StatusAccepted:
			return false, fmt.Errorf("engine: worker %s returned %s: %w", r.BaseURL, resp.Status, ErrUnavailable)
		}
		var out struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.ID == "" {
			return false, fmt.Errorf("engine: undecodable accept from %s: %w", r.BaseURL, ErrUnavailable)
		}
		id = out.ID
		return false, nil
	})
	return id, err
}

// poll GETs the execution's state, retrying transient failures within
// the budget. A positive wait asks the worker to hold the request until
// the execution turns terminal, its checkpoint seq passes after, or
// wait elapses. A 404 is definitive — the worker restarted and lost the
// execution — and fails over immediately.
func (r *RemoteExecutor) poll(ctx context.Context, id string, wait time.Duration, after uint64) (*execStatusResponse, error) {
	u := r.execURL(id)
	if wait > 0 {
		u += "?" + url.Values{
			"wait":  {wait.String()},
			"after": {strconv.FormatUint(after, 10)},
		}.Encode()
	}
	var st *execStatusResponse
	err := r.withRetry(ctx, "poll", func(actx context.Context) (bool, error) {
		hreq, err := http.NewRequestWithContext(actx, http.MethodGet, u, nil)
		if err != nil {
			return false, fmt.Errorf("engine: building poll request: %w", err)
		}
		r.setAuth(hreq)
		resp, err := r.client().Do(hreq)
		if err != nil {
			return true, fmt.Errorf("engine: polling %s on %s: %v: %w", id, r.BaseURL, err, ErrUnavailable)
		}
		defer drainClose(resp.Body)
		switch {
		case resp.StatusCode == http.StatusNotFound:
			// The worker restarted and lost the execution (its retention GC
			// cannot race us: we poll far more often than the 5m window).
			return false, fmt.Errorf("engine: worker %s no longer knows execution %s: %w", r.BaseURL, id, ErrUnavailable)
		case resp.StatusCode != http.StatusOK:
			return true, fmt.Errorf("engine: poll of %s on %s returned %s: %w", id, r.BaseURL, resp.Status, ErrUnavailable)
		}
		var decoded execStatusResponse
		if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
			return false, fmt.Errorf("engine: undecodable poll response from %s: %w", r.BaseURL, ErrUnavailable)
		}
		st = &decoded
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// fetchCheckpoint GETs the execution's newest resumable checkpoint.
// One attempt under the per-attempt deadline: the caller re-fetches a
// wait later if this one fails.
func (r *RemoteExecutor) fetchCheckpoint(ctx context.Context, id string) (*Checkpoint, error) {
	actx, cancel := context.WithTimeout(ctx, r.attemptTimeout())
	defer cancel()
	hreq, err := http.NewRequestWithContext(actx, http.MethodGet, r.execURL(id)+"/checkpoint", nil)
	if err != nil {
		return nil, err
	}
	r.setAuth(hreq)
	resp, err := r.client().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("engine: checkpoint fetch of %s on %s returned %s", id, r.BaseURL, resp.Status)
	}
	var cp Checkpoint
	if err := json.NewDecoder(resp.Body).Decode(&cp); err != nil {
		return nil, fmt.Errorf("engine: undecodable checkpoint from %s: %w", r.BaseURL, err)
	}
	return &cp, nil
}

// release cancels/acknowledges the execution so the worker frees it
// promptly. Best-effort: the worker's retention GC covers lost DELETEs,
// and the caller's ctx may already be dead, so this uses its own short
// deadline.
func (r *RemoteExecutor) release(id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodDelete, r.execURL(id), nil)
	if err != nil {
		return
	}
	r.setAuth(hreq)
	if resp, err := r.client().Do(hreq); err == nil {
		drainClose(resp.Body)
	}
}

// readAPIError extracts the message of an apiError envelope, falling
// back to the raw body.
func readAPIError(body io.Reader) string {
	raw, _ := io.ReadAll(io.LimitReader(body, 4096))
	var env struct {
		Error apiError `json:"error"`
	}
	if err := json.Unmarshal(raw, &env); err == nil && env.Error.Message != "" {
		return env.Error.Message
	}
	return strings.TrimSpace(string(raw))
}

func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 1<<20))
	body.Close()
}
