package daemon

import (
	"encoding/json"
	"fmt"
	"net"
	"time"
)

// Client talks the one-request-per-connection protocol to a simd daemon.
// The zero value with just Socket set is usable.
type Client struct {
	// Socket is the daemon's unix socket path.
	Socket string
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
}

// Do sends one request and reads the single response. Closing the
// connection early (client death) is the daemon's cancellation signal,
// so callers that want to abandon a run can simply stop waiting.
func (c *Client) Do(req Request) (*Response, error) {
	dt := c.DialTimeout
	if dt <= 0 {
		dt = 5 * time.Second
	}
	conn, err := net.DialTimeout("unix", c.Socket, dt)
	if err != nil {
		return nil, fmt.Errorf("daemon client: dial %s: %w", c.Socket, err)
	}
	defer conn.Close()
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		return nil, fmt.Errorf("daemon client: send: %w", err)
	}
	resp, err := readReply(conn)
	if err != nil {
		return nil, fmt.Errorf("daemon client: read response: %w", err)
	}
	return resp, nil
}

// Run submits a run request for spec.
func (c *Client) Run(spec RunSpec, deadline time.Duration, noCache, noDegrade bool) (*Response, error) {
	return c.Do(Request{
		Op:         "run",
		Spec:       spec,
		DeadlineMs: deadline.Milliseconds(),
		NoCache:    noCache,
		NoDegrade:  noDegrade,
	})
}

// Ping checks liveness.
func (c *Client) Ping() error {
	resp, err := c.Do(Request{Op: "ping"})
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("daemon client: ping: %s", resp.Err)
	}
	return nil
}

// Health fetches the watchdog surface.
func (c *Client) Health() (*Health, error) {
	resp, err := c.Do(Request{Op: "health"})
	if err != nil {
		return nil, err
	}
	if !resp.OK || resp.Health == nil {
		return nil, fmt.Errorf("daemon client: health: %s", resp.Err)
	}
	return resp.Health, nil
}

// WaitReady polls Ping until the daemon answers or the timeout expires —
// the startup handshake for scripts that just forked simd.
func (c *Client) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if err := c.Ping(); err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon client: %s not ready after %v", c.Socket, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
