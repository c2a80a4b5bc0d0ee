package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Client is the Go client for an hfxd server, shared by cmd/hfxd's
// -submit mode and the smoke test; library users reach it through the
// hfxmd facade.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the transport (default http.DefaultClient).
	HTTP *http.Client
}

// NewClient returns a client for the given base URL.
func NewClient(baseURL string) *Client { return &Client{BaseURL: baseURL} }

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// BusyError reports a 429 admission rejection with the server's
// suggested backoff.
type BusyError struct{ RetryAfter time.Duration }

// Error implements error.
func (e *BusyError) Error() string {
	return fmt.Sprintf("server busy, retry after %v", e.RetryAfter)
}

// DrainingError reports a 503 rejection from a server that has stopped
// accepting jobs. It is typed — unlike a generic transport error —
// because the right reaction differs: a fleet router fails the job over
// to another instance immediately, while a busy rejection is worth a
// backoff-and-retry (the fleet's retry sweep).
type DrainingError struct{ Msg string }

// Error implements error.
func (e *DrainingError) Error() string {
	if e.Msg == "" {
		return "server is draining"
	}
	return "server is draining: " + e.Msg
}

// Submit posts one job and waits for its result. Job-level outcomes
// (done, failed, cancelled) come back as a JobResult with State set;
// transport and admission failures come back as errors — a full queue is
// a *BusyError carrying the Retry-After hint, a draining server a
// *DrainingError the caller can fail over on.
func (c *Client) Submit(ctx context.Context, req JobRequest) (*JobResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hres, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hres.Body.Close()
	switch hres.StatusCode {
	case http.StatusOK:
		var res JobResult
		if err := json.NewDecoder(hres.Body).Decode(&res); err != nil {
			return nil, fmt.Errorf("decoding job result: %w", err)
		}
		return &res, nil
	case http.StatusTooManyRequests:
		secs, _ := strconv.Atoi(hres.Header.Get("Retry-After"))
		if secs <= 0 {
			secs = 1
		}
		return nil, &BusyError{RetryAfter: time.Duration(secs) * time.Second}
	case http.StatusServiceUnavailable:
		var body struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(io.LimitReader(hres.Body, 4096)).Decode(&body)
		return nil, &DrainingError{Msg: body.Error}
	default:
		msg, _ := io.ReadAll(io.LimitReader(hres.Body, 4096))
		return nil, fmt.Errorf("server returned %s: %s", hres.Status, bytes.TrimSpace(msg))
	}
}
