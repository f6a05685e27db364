package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sipt/internal/fault"
	"sipt/internal/sim"
)

// shardErr is the fabric's injection point: armed (e.g.
// "fabric.shard.err:1/8"), a seeded fraction of shard dispatches fail
// transiently before touching the wire, exercising the retry and
// re-route machinery without a real network fault.
var shardErr = fault.NewPoint("fabric.shard.err")

// defaultPoll is the shard status poll interval when NewClient is given
// none.
const defaultPoll = 5 * time.Millisecond

// sleep is the fabric's only delay primitive (backoff and shard
// polling). A swappable hook like serve's: tests replace it to record
// backoff schedules without waiting.
var sleep = func(d time.Duration) {
	time.Sleep(d)
}

// Client executes shards against one worker daemon over the siptd
// HTTP API. It is safe for concurrent use once configured.
type Client struct {
	base string // "http://host:port", no trailing slash
	hc   *http.Client
	poll time.Duration

	// OnRetry, when set, observes each in-place retry (the coordinator
	// wires it to the fabric_shards_retried_total counter). Set before
	// first use; not synchronised.
	OnRetry func()
}

// NewClient builds a client for the worker at base. hc nil selects
// http.DefaultClient; poll <= 0 selects the default status-poll
// interval.
func NewClient(base string, hc *http.Client, poll time.Duration) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	if poll <= 0 {
		poll = defaultPoll
	}
	return &Client{base: base, hc: hc, poll: poll}
}

// Base returns the worker's base URL.
func (c *Client) Base() string { return c.base }

// RunShard executes req on the worker and returns its stats, retrying
// transient failures (connection errors, 429 backpressure, 5xx, a
// failed worker job) in place on fault.Retry's ladder while ctx is live.
// The error it eventually returns keeps its fault.Transient marking,
// so the coordinator can tell reroutable failures from permanent
// protocol errors.
func (c *Client) RunShard(ctx context.Context, req ShardRequest) ([]sim.Stats, error) {
	var stats []sim.Stats
	err := fault.Retry(ctx, func() (err error) {
		stats, err = c.attempt(ctx, req)
		return err
	}, func(d, limit time.Duration, err error) {
		// A 429 carrying Retry-After is the worker pricing its own
		// backpressure: honour it over the blind ladder, but never wait
		// longer than the ladder's cap — the coordinator would rather
		// re-route than idle behind one slow worker.
		var hint *retryAfterHint
		if errors.As(err, &hint) {
			d = min(hint.delay, limit)
		}
		sleep(d)
		if c.OnRetry != nil {
			c.OnRetry()
		}
	})
	return stats, err
}

// attempt is one submit-and-poll round trip.
func (c *Client) attempt(ctx context.Context, req ShardRequest) ([]sim.Stats, error) {
	if err := shardErr.Err(); err != nil {
		return nil, err
	}
	id, err := c.submit(ctx, req)
	if err != nil {
		return nil, err
	}
	for {
		view, err := c.get(ctx, id)
		if err != nil {
			return nil, err
		}
		switch view.Status {
		case StatusDone:
			if len(view.Stats) != len(req.Configs) {
				// A protocol violation, not a flake: the same shard would
				// confuse any worker, so retrying or re-routing cannot help.
				return nil, fault.Permanent(fmt.Errorf("fabric: worker %s shard %s: %d stats for %d configs",
					c.base, id, len(view.Stats), len(req.Configs)))
			}
			return view.Stats, nil
		case StatusFailed, StatusCanceled:
			// A worker-side failure (including its job deadline) is
			// worth one more try here or on another worker.
			return nil, fault.Transient(fmt.Errorf("fabric: worker %s shard %s %s: %s",
				c.base, id, view.Status, view.Error))
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sleep(c.poll)
	}
}

// submit POSTs the shard and returns the worker-side job ID.
func (c *Client) submit(ctx context.Context, req ShardRequest) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", fault.Permanent(fmt.Errorf("fabric: encode shard: %w", err))
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/shard", bytes.NewReader(body))
	if err != nil {
		return "", fault.Permanent(fmt.Errorf("fabric: build request: %w", err))
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return "", ctxErr
		}
		return "", fault.Transient(fmt.Errorf("fabric: worker %s unreachable: %w", c.base, err))
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return "", c.statusErr("submit", resp)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil || sub.ID == "" {
		return "", fault.Transient(fmt.Errorf("fabric: worker %s: bad submit response: %v", c.base, err))
	}
	return sub.ID, nil
}

// get fetches one shard status snapshot.
func (c *Client) get(ctx context.Context, id string) (ShardView, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/shards/"+id, nil)
	if err != nil {
		return ShardView{}, fault.Permanent(fmt.Errorf("fabric: build request: %w", err))
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ShardView{}, ctxErr
		}
		return ShardView{}, fault.Transient(fmt.Errorf("fabric: worker %s unreachable: %w", c.base, err))
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return ShardView{}, c.statusErr("poll", resp)
	}
	var view ShardView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return ShardView{}, fault.Transient(fmt.Errorf("fabric: worker %s: bad shard view: %w", c.base, err))
	}
	return view, nil
}

// statusErr classifies a non-success HTTP status: backpressure (429),
// unavailability (503), and server errors (5xx) are transient — the
// worker may recover or the shard may fit elsewhere; remaining 4xx are
// protocol errors and permanent.
func (c *Client) statusErr(op string, resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	err := fmt.Errorf("fabric: worker %s %s: HTTP %d: %s", c.base, op, resp.StatusCode, bytes.TrimSpace(msg))
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
		if resp.StatusCode == http.StatusTooManyRequests {
			if d, ok := parseRetryAfter(resp.Header.Get("Retry-After")); ok {
				err = &retryAfterHint{err: err, delay: d}
			}
		}
		return fault.Transient(err)
	}
	return fault.Permanent(err)
}

// retryAfterHint threads a 429's Retry-After value through the
// transient error chain so RunShard's backoff loop can pace the next
// attempt by the server's own estimate. It wraps the underlying status
// error, so fault.IsTransient and message formatting are unchanged.
type retryAfterHint struct {
	err   error
	delay time.Duration
}

func (e *retryAfterHint) Error() string { return e.err.Error() }
func (e *retryAfterHint) Unwrap() error { return e.err }

// parseRetryAfter accepts the delta-seconds form of Retry-After
// (RFC 9110 §10.2.3). The HTTP-date form, garbage, and non-positive
// values are ignored — the caller falls back to the ladder.
func parseRetryAfter(h string) (time.Duration, bool) {
	secs, err := strconv.Atoi(strings.TrimSpace(h))
	if err != nil || secs <= 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// drain consumes and closes a response body so the connection can be
// reused.
func drain(body io.ReadCloser) {
	io.Copy(io.Discard, body) //nolint:errcheck // best-effort connection reuse
	body.Close()
}
