package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/store"
)

// Inject are the daemon's chaos knobs (cmd/simd -inject, chaos_test.go).
// All zero in production.
type Inject struct {
	// PanicEvery makes every Nth execution panic at start (recovered by
	// the per-request panic barrier, then retried).
	PanicEvery int
	// StoreCorruptEvery / StoreFailReadEvery forward to the store's
	// fault-injection knobs.
	StoreCorruptEvery  int
	StoreFailReadEvery int
}

// Config parameterizes a daemon.
type Config struct {
	// Socket is the unix socket path to listen on.
	Socket string
	// StoreDir roots the result store.
	StoreDir string
	// Parallel sizes the warm farm (<=0 = GOMAXPROCS).
	Parallel int
	// MaxInflight bounds concurrently executing run requests (default 2);
	// QueueBound bounds requests waiting for admission (default 8) —
	// beyond it the degradation ladder engages immediately.
	MaxInflight int
	QueueBound  int
	// PreviewWindowMs is the reduced window of the degraded rung
	// (default 0.5).
	PreviewWindowMs float64
	// Retries bounds re-attempts after transient failures (default 2,
	// i.e. up to 3 attempts); RetryBase is the first backoff (default
	// 50ms), doubled per attempt with up to 50% jitter.
	Retries   int
	RetryBase time.Duration
	// DefaultDeadline bounds requests that carry none (default 10min).
	DefaultDeadline time.Duration
	// IOTimeout bounds reading the request and writing the response, so
	// a stalled client cannot pin a handler goroutine (default 30s).
	IOTimeout time.Duration
	// Fingerprint overrides the code fingerprint in store keys (tests;
	// default BinaryFingerprint()).
	Fingerprint string
	Inject      Inject
	// Logf, when set, receives one line per notable event.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2
	}
	if c.QueueBound <= 0 {
		c.QueueBound = 8
	}
	if c.PreviewWindowMs <= 0 {
		c.PreviewWindowMs = 0.5
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 10 * time.Minute
	}
	if c.IOTimeout <= 0 {
		c.IOTimeout = 30 * time.Second
	}
	if c.Fingerprint == "" {
		c.Fingerprint = store.BinaryFingerprint()
	}
	return c
}

// Daemon is one running service instance.
type Daemon struct {
	cfg  Config
	farm *bench.Farm
	st   *store.Store
	ln   net.Listener

	sem        chan struct{} // admission: executing run requests
	previewSem chan struct{} // the single degraded-preview slot
	waiters    atomic.Int64

	started  time.Time
	draining atomic.Bool
	conns    sync.WaitGroup

	// daemon.* counters (health endpoint / obs.PublishDaemon)
	requests, runs, cacheHits    atomic.Uint64
	degraded, overloads          atomic.Uint64
	retries, panicsRecovered     atomic.Uint64
	canceled, deadlines          atomic.Uint64
	badRequests, internalErrors  atomic.Uint64
	corruptRecomputed, execCount atomic.Uint64

	// execute is the run path, Execute; tests substitute failures.
	execute func(context.Context, *bench.Farm, RunSpec) (*Result, error)
}

// New opens the store and socket and starts the warm farm. Call Serve to
// accept requests and Shutdown to drain.
func New(cfg Config) (*Daemon, error) {
	cfg = cfg.withDefaults()
	st, err := store.Open(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	st.CorruptEvery = cfg.Inject.StoreCorruptEvery
	st.FailReadEvery = cfg.Inject.StoreFailReadEvery
	os.Remove(cfg.Socket) // a previous instance's stale socket
	ln, err := net.Listen("unix", cfg.Socket)
	if err != nil {
		return nil, fmt.Errorf("daemon: listen: %w", err)
	}
	d := &Daemon{
		cfg:        cfg,
		farm:       bench.NewFarm(cfg.Parallel),
		st:         st,
		ln:         ln,
		sem:        make(chan struct{}, cfg.MaxInflight),
		previewSem: make(chan struct{}, 1),
		started:    time.Now(),
		execute:    Execute,
	}
	return d, nil
}

// Store exposes the result store (chaos tests corrupt entries through it).
func (d *Daemon) Store() *store.Store { return d.st }

func (d *Daemon) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// Serve accepts connections until Shutdown closes the listener. Each
// connection is one request; handler goroutines are tracked so Shutdown
// can drain them.
func (d *Daemon) Serve() error {
	for {
		conn, err := d.ln.Accept()
		if err != nil {
			if d.draining.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("daemon: accept: %w", err)
		}
		d.conns.Add(1)
		go func() {
			defer d.conns.Done()
			d.handle(conn)
		}()
	}
}

// Shutdown is the graceful SIGTERM path: stop accepting, let every
// in-flight request complete and flush its response, then stop the farm.
func (d *Daemon) Shutdown() {
	if d.draining.Swap(true) {
		return
	}
	d.ln.Close()
	d.conns.Wait()
	d.farm.Close()
	os.Remove(d.cfg.Socket)
	d.logf("daemon: drained and stopped")
}

// handle serves one connection = one request.
func (d *Daemon) handle(conn net.Conn) {
	defer conn.Close()
	d.requests.Add(1)

	// A stalled or malicious client may never send a full request: bound
	// the read so the handler goroutine cannot be pinned.
	conn.SetReadDeadline(time.Now().Add(d.cfg.IOTimeout))
	dec := json.NewDecoder(conn)
	var req Request
	if err := dec.Decode(&req); err != nil {
		d.badRequests.Add(1)
		d.respond(conn, &Response{OK: false, Err: fmt.Sprintf("bad request: %v", err), ErrKind: ErrKindBadRequest})
		return
	}
	conn.SetReadDeadline(time.Time{})

	switch req.Op {
	case "ping":
		d.respond(conn, &Response{OK: true})
	case "health":
		d.respond(conn, &Response{OK: true, Health: d.health()})
	case "run":
		d.respond(conn, d.serveRun(conn, req))
	default:
		d.badRequests.Add(1)
		d.respond(conn, &Response{OK: false, Err: fmt.Sprintf("unknown op %q", req.Op), ErrKind: ErrKindBadRequest})
	}
}

// respond writes the single response under the slow-client write bound.
func (d *Daemon) respond(conn net.Conn, resp *Response) {
	conn.SetWriteDeadline(time.Now().Add(d.cfg.IOTimeout))
	if err := json.NewEncoder(conn).Encode(resp); err != nil {
		d.logf("daemon: response write: %v", err)
	}
}

// serveRun is the full run path: normalize → memoized artifact →
// admission → compute (with retry) → store → respond.
func (d *Daemon) serveRun(conn net.Conn, req Request) *Response {
	spec, err := req.Spec.Normalize()
	if err != nil {
		d.badRequests.Add(1)
		return &Response{OK: false, Err: err.Error(), ErrKind: ErrKindBadRequest}
	}

	deadline := d.cfg.DefaultDeadline
	if req.DeadlineMs > 0 {
		deadline = time.Duration(req.DeadlineMs) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	// One request per connection means any further read activity is the
	// client vanishing (EOF/reset) or violating the protocol; both cancel
	// the request so its queued sweep points are abandoned.
	go func() {
		var b [1]byte
		conn.Read(b[:])
		cancel()
	}()

	key, err := spec.Key(d.cfg.Fingerprint)
	if err != nil {
		d.internalErrors.Add(1)
		return &Response{OK: false, Err: err.Error(), ErrKind: ErrKindInternal}
	}

	// Rung 1 of the ladder: the memoized artifact. A corrupt entry has
	// been quarantined by the store; recompute below re-heals the key.
	if !req.NoCache {
		if payload, err := d.storeGet(ctx, key); err == nil {
			d.cacheHits.Add(1)
			return &Response{OK: true, Cached: true, Key: key, Artifact: payload}
		} else if errors.Is(err, store.ErrCorrupt) {
			d.corruptRecomputed.Add(1)
			d.logf("daemon: corrupt entry %s quarantined; recomputing", key[:8])
		}
	}

	// Admission: bounded wait for an execution slot. Past the queue
	// bound, shed immediately down the ladder.
	if int(d.waiters.Load()) >= d.cfg.QueueBound {
		return d.shed(ctx, req, spec)
	}
	d.waiters.Add(1)
	select {
	case d.sem <- struct{}{}:
		d.waiters.Add(-1)
	case <-ctx.Done():
		d.waiters.Add(-1)
		return d.ctxResponse(ctx)
	}
	defer func() { <-d.sem }()

	if ctx.Err() != nil {
		return d.ctxResponse(ctx)
	}
	return d.computeAndStore(ctx, spec, key, false)
}

// shed is rungs 2–3 of the degradation ladder: a reduced-window preview
// on its own single slot, else a typed overload rejection.
func (d *Daemon) shed(ctx context.Context, req Request, spec RunSpec) *Response {
	overload := &Response{OK: false, ErrKind: ErrKindOverload,
		Err: fmt.Sprintf("overloaded: %d executing, %d waiting", len(d.sem), d.waiters.Load())}
	if req.NoDegrade || !spec.SupportsPreview() || spec.WindowMs <= d.cfg.PreviewWindowMs {
		d.overloads.Add(1)
		return overload
	}
	preview := spec
	preview.WindowMs = d.cfg.PreviewWindowMs
	key, err := preview.Key(d.cfg.Fingerprint)
	if err != nil {
		d.overloads.Add(1)
		return overload
	}
	// A memoized preview is free — serve it without even taking the slot.
	if payload, err := d.storeGet(ctx, key); err == nil {
		d.cacheHits.Add(1)
		d.degraded.Add(1)
		return &Response{OK: true, Cached: true, Degraded: true, Key: key, Artifact: payload}
	}
	select {
	case d.previewSem <- struct{}{}:
		defer func() { <-d.previewSem }()
	default:
		d.overloads.Add(1)
		return overload
	}
	resp := d.computeAndStore(ctx, preview, key, true)
	if resp.OK {
		d.degraded.Add(1)
	}
	return resp
}

// computeAndStore executes the spec with bounded retry, memoizes the
// artifact, and builds the response.
func (d *Daemon) computeAndStore(ctx context.Context, spec RunSpec, key string, degraded bool) *Response {
	art, err := d.computeWithRetry(ctx, spec)
	if err != nil {
		if ctx.Err() != nil {
			return d.ctxResponse(ctx)
		}
		d.internalErrors.Add(1)
		return &Response{OK: false, Err: err.Error(), ErrKind: ErrKindInternal}
	}
	var buf bytes.Buffer
	if err := art.Encode(&buf); err != nil {
		d.internalErrors.Add(1)
		return &Response{OK: false, Err: err.Error(), ErrKind: ErrKindInternal}
	}
	payload := buf.Bytes()
	if err := d.st.Put(key, payload); err != nil {
		// A failed Put degrades the cache, not the response.
		d.logf("daemon: store put %s: %v", key[:8], err)
	}
	d.runs.Add(1)
	return &Response{OK: true, Degraded: degraded, Key: key, Artifact: payload}
}

// recoveredPanic marks a panic caught by the per-request barrier (as
// opposed to one recovered inside the farm, which surfaces as a
// bench.IsPanic error).
type recoveredPanic struct{ msg string }

func (e *recoveredPanic) Error() string { return e.msg }

// computeWithRetry runs the spec, retrying worker panics (farm-recovered
// or barrier-recovered) with exponential backoff plus jitter, bounded by
// cfg.Retries. Any other error is returned at once: the run path never
// touches the store (storeGet retries store reads itself), and a
// simulation error would only recur.
func (d *Daemon) computeWithRetry(ctx context.Context, spec RunSpec) (art *report.Artifact, err error) {
	var lastErr error
	for attempt := 0; attempt <= d.cfg.Retries; attempt++ {
		if attempt > 0 {
			d.retries.Add(1)
			backoff := d.cfg.RetryBase << (attempt - 1)
			backoff += time.Duration(rand.Int63n(int64(backoff)/2 + 1))
			d.logf("daemon: retry %d/%d for %s after %v: %v",
				attempt, d.cfg.Retries, spec.Tool, backoff, lastErr)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		art, err := d.execProtected(ctx, spec)
		if err == nil {
			return art, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		lastErr = err
		if !retryable(err) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("daemon: giving up after %d attempts: %w", d.cfg.Retries+1, lastErr)
}

func retryable(err error) bool {
	var rp *recoveredPanic
	return bench.IsPanic(err) || errors.As(err, &rp)
}

// execProtected is the per-request panic barrier: a panic anywhere in
// the coordinator path becomes an error on this request, never a daemon
// exit. Farm-task panics are already converted by the farm itself.
func (d *Daemon) execProtected(ctx context.Context, spec RunSpec) (art *report.Artifact, err error) {
	defer func() {
		if r := recover(); r != nil {
			d.panicsRecovered.Add(1)
			err = &recoveredPanic{msg: fmt.Sprintf("daemon: recovered exec panic: %v", r)}
		}
	}()
	// panic-every=1 fails every attempt (retry exhaustion); N>1 panics on
	// attempts 1, N+1, 2N+1, ... so the first retry of a request succeeds.
	if n := d.cfg.Inject.PanicEvery; n > 0 {
		if c := d.execCount.Add(1); n == 1 || c%uint64(n) == 1 {
			panic("daemon: injected exec panic")
		}
	}
	res, err := d.execute(ctx, d.farm, spec)
	if err != nil {
		return nil, err
	}
	return res.Artifact, nil
}

// storeGet reads a key with a short bounded retry over transient I/O
// errors (miss and corruption are definitive, not retried).
func (d *Daemon) storeGet(ctx context.Context, key string) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt <= d.cfg.Retries; attempt++ {
		payload, err := d.st.Get(key)
		if err == nil {
			return payload, nil
		}
		if errors.Is(err, store.ErrMiss) || errors.Is(err, store.ErrCorrupt) {
			return nil, err
		}
		lastErr = err
		d.retries.Add(1)
		backoff := d.cfg.RetryBase << attempt
		backoff += time.Duration(rand.Int63n(int64(backoff)/2 + 1))
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

// ctxResponse maps a finished context to its typed response.
func (d *Daemon) ctxResponse(ctx context.Context) *Response {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		d.deadlines.Add(1)
		return &Response{OK: false, Err: "deadline exceeded", ErrKind: ErrKindDeadline}
	}
	d.canceled.Add(1)
	return &Response{OK: false, Err: "canceled (client gone)", ErrKind: ErrKindCanceled}
}

// health snapshots liveness and the daemon.*/farm.* metric surface.
func (d *Daemon) health() *Health {
	r := obs.NewRegistry()
	obs.PublishDaemon(r, d.stats())
	d.farm.Publish(r)
	return &Health{
		PID:      os.Getpid(),
		UptimeMs: time.Since(d.started).Milliseconds(),
		Draining: d.draining.Load(),
		Metrics:  r.Snapshot(),
		Store:    d.st.Stats(),
	}
}

// stats assembles the daemon's obs.DaemonStats snapshot.
func (d *Daemon) stats() obs.DaemonStats {
	ss := d.st.Stats()
	return obs.DaemonStats{
		Requests:          d.requests.Load(),
		Runs:              d.runs.Load(),
		CacheHits:         d.cacheHits.Load(),
		Degraded:          d.degraded.Load(),
		Overloads:         d.overloads.Load(),
		Retries:           d.retries.Load(),
		PanicsRecovered:   d.panicsRecovered.Load(),
		Canceled:          d.canceled.Load(),
		Deadlines:         d.deadlines.Load(),
		BadRequests:       d.badRequests.Load(),
		InternalErrors:    d.internalErrors.Load(),
		CorruptRecomputed: d.corruptRecomputed.Load(),
		Executing:         len(d.sem),
		Waiting:           int(d.waiters.Load()),
		StoreHits:         ss.Hits,
		StoreMisses:       ss.Misses,
		StorePuts:         ss.Puts,
		StoreCorrupt:      ss.Corrupt,
		StoreReadErrors:   ss.ReadErrors,
		UptimeMs:          time.Since(d.started).Milliseconds(),
	}
}
