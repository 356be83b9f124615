// Package daemon is the always-on simulation service behind cmd/simd: it
// keeps one warm bench.Farm across requests, serves run requests from
// concurrent clients over a JSON-over-unix-socket protocol, and memoizes
// (tool, seed, normalized config, code-fingerprint) → artifact in a
// crash-safe internal/store. Robustness is the design center (see
// doc/DAEMON.md): every request is deadline-bounded and cancellable,
// admission control bounds the queue over the farm and sheds load down a
// degradation ladder (memoized artifact → reduced-window preview → typed
// overload), transient failures retry with exponential backoff + jitter,
// worker panics are recovered per-request, and SIGTERM drains in-flight
// requests before exit. The daemon chaos suite (chaos_test.go) injects
// panics, store corruption, disconnects and overload floods and holds
// the daemon to: never crash, never serve corrupt bytes, stay 0-drift
// with the one-shot tools.
package daemon

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/tenant"
)

// Error kinds carried in Response.ErrKind so clients can react without
// string-matching messages.
const (
	ErrKindOverload   = "overload"    // admission control shed the request
	ErrKindDeadline   = "deadline"    // request deadline expired
	ErrKindCanceled   = "canceled"    // client disconnected mid-run
	ErrKindBadRequest = "bad_request" // malformed/unknown spec
	ErrKindInternal   = "internal"    // retries exhausted or unexpected failure
)

// Tools Execute can run, named after the cmd/* tools that call it.
var Tools = []string{"reproduce", "chaosbench", "attackbench", "tenantbench"}

// RunSpec names one deterministic benchmark run. The normalized spec
// (Normalize) plus the serving binary's fingerprint is the store key:
// everything that changes the artifact is in here, and nothing else.
type RunSpec struct {
	Tool string `json:"tool"`
	// Seed seeds chaosbench/attackbench/tenantbench (reproduce has no
	// seed; its experiments are fully determined by window/sections).
	Seed int64 `json:"seed,omitempty"`
	// WindowMs is the simulated window per data point (reproduce,
	// chaosbench; the other tools have fixed windows).
	WindowMs float64 `json:"window_ms,omitempty"`

	// reproduce
	SkipSensitivity bool   `json:"skip_sensitivity,omitempty"`
	Experiments     string `json:"experiments,omitempty"` // comma list or "all"

	// chaosbench
	Cores     int    `json:"cores,omitempty"`
	System    string `json:"system,omitempty"`
	Scenarios string `json:"scenarios,omitempty"` // comma list or "all"

	// attackbench
	Payloads string `json:"payloads,omitempty"` // comma list or "all"
	Systems  string `json:"systems,omitempty"`  // comma list or "all"

	// tenantbench
	Schemes string `json:"schemes,omitempty"` // comma list or "all"
	Attacks string `json:"attacks,omitempty"` // comma list or "all"
	Tenants string `json:"tenants,omitempty"` // comma list of counts, "" = library default
	Frames  string `json:"frames,omitempty"`  // comma list of sizes, "" = library default
}

// Request is one client message. The protocol is one request per
// connection: the client dials, sends a Request, reads one Response. A
// closed connection before the response is the cancellation signal.
type Request struct {
	Op string `json:"op"` // "run" | "health" | "ping"

	Spec RunSpec `json:"spec,omitempty"`
	// DeadlineMs bounds the run (0 = daemon default). On expiry queued
	// sweep points are abandoned and the client gets ErrKindDeadline.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// NoCache forces recomputation (the artifact is still stored).
	NoCache bool `json:"no_cache,omitempty"`
	// NoDegrade disables the reduced-window preview rung: under overload
	// the request is rejected rather than served degraded.
	NoDegrade bool `json:"no_degrade,omitempty"`
}

// Response is the daemon's single reply.
type Response struct {
	OK      bool   `json:"ok"`
	Err     string `json:"err,omitempty"`
	ErrKind string `json:"err_kind,omitempty"`
	// Cached is true when the artifact came out of the store; Degraded
	// when it is a reduced-window preview served under overload.
	Cached   bool   `json:"cached,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
	Key      string `json:"key,omitempty"` // store key of the artifact
	// Artifact is the raw internal/report JSON (op "run").
	Artifact []byte `json:"artifact,omitempty"`
	// Health is set for op "health".
	Health *Health `json:"health,omitempty"`
}

// Health is the watchdog surface: liveness plus the daemon.*, farm.* and
// store counters, exactly as obs publishes them.
type Health struct {
	PID      int          `json:"pid"`
	UptimeMs int64        `json:"uptime_ms"`
	Draining bool         `json:"draining"`
	Metrics  obs.Snapshot `json:"metrics"`
	Store    store.Stats  `json:"store"`
}

// keyDesc is the canonical store-key descriptor: the normalized spec and
// the code fingerprint, nothing volatile (deadline, cache flags).
type keyDesc struct {
	Fingerprint string  `json:"fingerprint"`
	Spec        RunSpec `json:"spec"`
}

// Key derives the content address for a normalized spec under a code
// fingerprint.
func (s RunSpec) Key(fingerprint string) (string, error) {
	return store.Key(keyDesc{Fingerprint: fingerprint, Spec: s})
}

// Normalize validates a spec and fills tool defaults, returning the
// canonical form under which results are memoized: two requests that
// mean the same run always normalize to the same bytes. Every name and
// number is checked here, so a malformed spec fails before the store key
// and admission; errors are ErrKindBadRequest material.
func (s RunSpec) Normalize() (RunSpec, error) {
	n := RunSpec{Tool: s.Tool}
	var err error
	switch s.Tool {
	case "reproduce":
		n.WindowMs = defFloat(s.WindowMs, 10)
		n.SkipSensitivity = s.SkipSensitivity
		n.Experiments, err = canonExperiments(s.Experiments)
	case "chaosbench":
		n.Seed = defInt64(s.Seed, 1)
		n.WindowMs = defFloat(s.WindowMs, 2)
		n.Cores = defInt(s.Cores, 2)
		n.System = defStr(s.System, "strict")
		if !bench.IsSystem(n.System) {
			err = fmt.Errorf("unknown system %q (have: %s)", n.System, strings.Join(bench.ExtendedSystems, ","))
			break
		}
		n.Scenarios, err = canonNames("scenario", s.Scenarios, scenarioNames)
	case "attackbench":
		n.Seed = defInt64(s.Seed, 1)
		if n.Payloads, err = canonNames("payload", s.Payloads, campaign.Payloads); err == nil {
			n.Systems, err = canonNames("system", s.Systems, extendedSystems)
		}
	case "tenantbench":
		n.Seed = defInt64(s.Seed, 1)
		if n.Schemes, err = canonNames("scheme", s.Schemes, tenant.Schemes); err != nil {
			break
		}
		if n.Attacks, err = canonNames("attack", s.Attacks, tenant.Attacks); err != nil {
			break
		}
		// Every sweep point mounts a hostile tenant beside its victims.
		if n.Tenants, err = canonInts("tenant count", s.Tenants, 2); err == nil {
			n.Frames, err = canonInts("frame size", s.Frames, 1)
		}
	default:
		err = fmt.Errorf("unknown tool %q (have %s)", s.Tool, strings.Join(Tools, ","))
	}
	return n, err
}

// SupportsPreview reports whether the tool has a window knob the
// degradation ladder can shrink.
func (s RunSpec) SupportsPreview() bool {
	return s.Tool == "reproduce" || s.Tool == "chaosbench"
}

func defFloat(v, d float64) float64 {
	if v <= 0 {
		return d
	}
	return v
}

func defInt64(v, d int64) int64 {
	if v == 0 {
		return d
	}
	return v
}

func defInt(v, d int) int {
	if v <= 0 {
		return d
	}
	return v
}

func defStr(v, d string) string {
	if v == "" {
		return d
	}
	return v
}

// canonList canonicalizes a comma list: trimmed and deduped, first
// occurrence kept. Order is kept because it is the output order of every
// list but reproduce's experiments. "all" and "" both mean the library
// default and normalize to "all".
func canonList(s string) string {
	if s == "" || s == "all" {
		return "all"
	}
	seen := map[string]bool{}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" && !seen[part] {
			seen[part] = true
			out = append(out, part)
		}
	}
	if len(out) == 0 {
		return "all"
	}
	return strings.Join(out, ",")
}

// canonNames canonicalizes a comma list and checks it against the known
// names, reporting every unknown one together with the known set. The
// known set is built only for an explicit list, keeping "all" cheap on
// the memoized request path.
func canonNames(kind, s string, knownNames func() []string) (string, error) {
	c := canonList(s)
	if c == "all" {
		return c, nil
	}
	known := knownNames()
	var unknown []string
	for _, name := range strings.Split(c, ",") {
		if !slices.Contains(known, name) {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return "", fmt.Errorf("unknown %s(s) %s (have: %s)",
			kind, strings.Join(unknown, ","), strings.Join(known, ","))
	}
	return c, nil
}

// canonExperiments validates a reproduce experiment list against Table 1
// plus the suite. The report renders in suite order whatever the list
// order, so the canonical list is sorted: reorderings share a store key.
func canonExperiments(s string) (string, error) {
	c, err := canonNames("experiment", s, experimentNames)
	if err != nil || c == "all" {
		return c, err
	}
	names := strings.Split(c, ",")
	sort.Strings(names)
	return strings.Join(names, ","), nil
}

func experimentNames() []string {
	out := []string{"table1"}
	for _, sec := range bench.Suite(true) {
		out = append(out, sec.Name)
	}
	return out
}

func extendedSystems() []string { return bench.ExtendedSystems }

func scenarioNames() []string {
	out := make([]string, len(chaos.Scenarios))
	for i, s := range chaos.Scenarios {
		out[i] = s.Name
	}
	return out
}

// canonInts canonicalizes a comma list of integers, each at least min.
func canonInts(kind, s string, min int) (string, error) {
	c := canonList(s)
	if c == "all" {
		return c, nil
	}
	parts := strings.Split(c, ",")
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < min {
			return "", fmt.Errorf("bad %s %q (want an integer >= %d)", kind, p, min)
		}
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ","), nil
}
