package shardrpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"edgealloc/internal/telemetry"
)

// Default client robustness knobs (ClientOptions zero values).
const (
	// DefaultTimeout bounds one HTTP attempt end to end. Block solves at
	// the throughput budgets take tens of milliseconds; the default
	// leaves two orders of magnitude of headroom before a hung worker
	// stalls the coordination loop.
	DefaultTimeout = 30 * time.Second
	// DefaultRetries is the number of re-attempts after the first try.
	DefaultRetries = 2
	// DefaultBackoff is the first retry's sleep; it doubles per retry.
	DefaultBackoff = 50 * time.Millisecond
)

// ClientOptions tunes a worker client. Zero values select the defaults
// above.
type ClientOptions struct {
	// Timeout is the per-attempt deadline (context.WithTimeout around
	// each HTTP round trip).
	Timeout time.Duration
	// Retries is the number of re-attempts after a retryable failure:
	// transport errors, deadline expiry, and 5xx responses. Structured
	// errors (unknown block, bad request) are never retried here — the
	// unknown-block recovery is the caller's spec re-push.
	Retries int
	// Backoff is the exponential backoff base: attempt k (1-based retry)
	// sleeps Backoff·2^(k−1) first.
	Backoff time.Duration
	// Metrics optionally records per-attempt telemetry; nil records
	// nothing.
	Metrics *telemetry.SolverMetrics
}

// Client speaks the shard RPC to one worker. A Client is safe for
// concurrent use — the coordinator solves blocks on parallel goroutines,
// and blocks placed on the same worker share one Client.
type Client struct {
	base string
	opts ClientOptions
}

// NewClient builds a client for the worker at base (for example
// "http://127.0.0.1:9711"). Zero option fields take the package
// defaults.
func NewClient(base string, opts ClientOptions) *Client {
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	} else if opts.Retries == 0 {
		opts.Retries = DefaultRetries
	}
	if opts.Backoff <= 0 {
		opts.Backoff = DefaultBackoff
	}
	return &Client{base: strings.TrimRight(base, "/"), opts: opts}
}

// Base returns the worker base URL the client targets.
func (c *Client) Base() string { return c.base }

// Metrics returns the client's instrument bundle (possibly nil).
func (c *Client) Metrics() *telemetry.SolverMetrics { return c.opts.Metrics }

// BeginSlot pushes a block spec to the worker.
func (c *Client) BeginSlot(ctx context.Context, spec *BlockSpec) error {
	_, err := c.do(ctx, "begin-slot", EncodeBlockSpec(spec))
	return err
}

// Solve runs one consensus x-step of a hosted block.
func (c *Client) Solve(ctx context.Context, id string, slot, gen int, rho float64, target []float64) (*SolveResponse, error) {
	body, err := c.do(ctx, "solve", EncodeSolveRequest(&SolveRequest{
		ID: id, Slot: slot, Gen: gen, Rho: rho, Target: target,
	}))
	if err != nil {
		return nil, err
	}
	return DecodeSolveResponse(body)
}

// State fetches a hosted block's warm state.
func (c *Client) State(ctx context.Context, id string, slot, gen int) (*StateResponse, error) {
	body, err := c.do(ctx, "state", mustJSON(&StateRequest{ID: id, Slot: slot, Gen: gen}))
	if err != nil {
		return nil, err
	}
	return DecodeStateResponse(body)
}

// Commit marks the slot committed on the worker. Best-effort by design:
// the coordinator's state is authoritative and the next begin-slot
// replaces the worker's copy regardless.
func (c *Client) Commit(ctx context.Context, id string, slot int) error {
	_, err := c.do(ctx, "commit-slot", mustJSON(&CommitRequest{ID: id, Slot: slot}))
	return err
}

// do POSTs one RPC with the client's deadline/backoff/retry policy and
// returns the response body of the first 200.
func (c *Client) do(ctx context.Context, method string, reqBody []byte) ([]byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	url := c.base + "/v1/shard/" + method
	var lastErr error
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if attempt > 0 {
			d := c.opts.Backoff << (attempt - 1)
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, fmt.Errorf("shardrpc: %s %s: %w (after %v)", method, c.base, ctx.Err(), lastErr)
			case <-t.C:
			}
		}
		body, retryable, err := c.attempt(ctx, url, reqBody, attempt > 0)
		if err == nil {
			return body, nil
		}
		lastErr = err
		if !retryable {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("shardrpc: %s %s: %w (after %v)", method, c.base, ctx.Err(), lastErr)
		}
	}
	return nil, fmt.Errorf("shardrpc: %s %s: retries exhausted: %w", method, c.base, lastErr)
}

// attempt runs one HTTP round trip, reporting whether a failure is worth
// retrying.
func (c *Client) attempt(ctx context.Context, url string, reqBody []byte, isRetry bool) (body []byte, retryable bool, err error) {
	start := time.Now()
	moved := int64(len(reqBody))
	defer func() {
		c.opts.Metrics.ObserveShardRPCAttempt(time.Since(start).Seconds(), moved, isRetry)
	}()

	actx, cancel := context.WithTimeout(ctx, c.opts.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, url, bytes.NewReader(reqBody))
	if err != nil {
		return nil, false, fmt.Errorf("shardrpc: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	// http.DefaultClient's shared connection pool keeps per-call dials
	// off the hot path.
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		// Transport failure or deadline: the worker may be restarting.
		return nil, true, fmt.Errorf("shardrpc: %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	moved += int64(len(body))
	if err != nil {
		return nil, true, fmt.Errorf("shardrpc: %s: reading response: %w", url, err)
	}
	if resp.StatusCode == http.StatusOK {
		return body, false, nil
	}
	werr := decodeError(body, resp.StatusCode)
	if errors.Is(werr, ErrUnknownBlock) {
		// Structural, not transient: the caller re-pushes the spec.
		return nil, false, werr
	}
	return nil, resp.StatusCode >= 500, werr
}

// decodeError maps a non-200 body to a structured *Error where possible.
func decodeError(body []byte, status int) error {
	var e Error
	if err := json.Unmarshal(body, &e); err == nil && e.Msg != "" {
		if e.Code == "" {
			e.Code = CodeInternal
		}
		return &e
	}
	return &Error{Code: CodeInternal, Msg: fmt.Sprintf("HTTP %d: %s", status, truncate(body, 200))}
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}
