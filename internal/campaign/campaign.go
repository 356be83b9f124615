// Package campaign implements a programmable malicious-device engine: a
// library of DMA attack payloads, each executed in four phases —
// identify / deliver / verify / cleanup — against a live simulated
// machine (IOMMU, page tables, IOTLB, protection strategy). Outcomes are
// observed, never scripted: a payload succeeds or fails according to the
// translation state the strategy actually produced.
//
// Table1 reproduces the paper's Table 1 from three of the payloads
// (RunTable1), and the package generalizes it from 3 attacks x 6
// protection models to a ~10 x 8 success matrix (Matrix, cmd/attackbench)
// that is deterministic per seed and regression-gated in CI against
// ci/attack-baseline.json — any cell flip (a defense newly broken or
// newly effective) fails the build.
//
// Two design points beyond the PASIV-style payload library:
//
//   - Ground truth is sentinel-based: the victim's traffic loop fills
//     every unmapped ("OS-reused") buffer with a per-record sentinel, so
//     "the attack landed" means real OS-visible memory was corrupted —
//     writes that land harmlessly in quarantined shadow buffers or
//     SWIOTLB bounce slots do not count (see victim.go).
//   - The discovery payload (discover.go) is DICE-flavored: the attacker
//     infers live DMA channels by scanning the IOVA space and timing
//     translations instead of being handed addresses.
package campaign

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/cycles"
	"repro/internal/iommu"
	"repro/internal/resilience"
	"repro/internal/sim"
)

// Secret is the co-located kernel data harvest payloads try to steal.
var Secret = []byte("TLS-PRIVATE-KEY:0xDEADBEEFCAFEBABE")

// Payload is one programmable attack. The four phases run in order, in
// proc context, against a live Target:
//
//	Identify  reconnaissance and victim-side staging: run victim traffic,
//	          stage co-located secrets, arm the fault-domain supervisor.
//	Deliver   mount the attack: the compromised device issues real DMAs
//	          through the simulated IOMMU.
//	Verify    decide success from observed machine state (sentinel
//	          corruption, leaked bytes, quarantine state) and record
//	          per-payload metrics into the Result.
//	Cleanup   release payload-held resources so accounting invariants
//	          hold for whatever runs next on the machine.
//
// A payload instance is single-use: it carries phase state from Identify
// through Cleanup and must not be reused across targets.
type Payload interface {
	// Name is the stable machine-readable payload id ("replay-window").
	Name() string
	// Title is the one-line human description.
	Title() string
	Identify(p *sim.Proc, t *Target) error
	Deliver(p *sim.Proc, t *Target) error
	Verify(p *sim.Proc, t *Target, r *Result) error
	Cleanup(p *sim.Proc, t *Target) error
}

// Result is the observed outcome of one payload against one system.
type Result struct {
	Payload string
	System  string
	// Success means the ATTACK succeeded (the protection was breached).
	Success bool
	// Detail is a short human-readable account of what happened.
	Detail string
	// Leaked holds bytes the device exfiltrated, when the payload steals
	// data (harvest/spoof/stale-read payloads).
	Leaked []byte
	// Metrics are the benchdiff-gated per-cell numbers. Every payload
	// records at least "success" (0/1); most add probe/fault/timing
	// counts. All values derive from virtual time and deterministic
	// state, never host wall-clock.
	Metrics map[string]float64
	Err     error
}

// Target is one assembled victim machine under attack: the compromised
// device is the machine's own NIC (device 1).
type Target struct {
	Mach   *bench.Machine
	System string
	Seed   int64

	// Log is the OS-side ground truth: every victim mapping with its
	// lifetime and sentinel state. Payloads use it in Verify (it is the
	// oracle); discovery-mode payloads must not read IOVAs from it
	// during Identify/Deliver.
	Log *VictimLog

	// Observed is the attacker's notebook: every IOVA the device
	// legitimately learned by having an RX descriptor posted to it
	// (nic.RxPostHook). Index i corresponds to Log.Mappings[i] for
	// mappings made through MapVictim/MapVictimBuf.
	Observed []iommu.IOVA

	// Sup is the fault-domain supervisor, nil unless a payload armed it
	// (ArmSupervisor): the success matrix measures the protection model
	// itself; quarantine interaction is per-payload.
	Sup *resilience.Supervisor
}

// NewTarget assembles a quiet single-core machine (no benchmark traffic)
// running the given protection strategy, with the descriptor-observation
// hook installed.
func NewTarget(system string, seed int64) (*Target, error) {
	cfg := bench.DefaultConfig(system, bench.RX, 1, 1500)
	mach, err := bench.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	t := &Target{Mach: mach, System: system, Seed: seed, Log: &VictimLog{}}
	mach.NIC.RxPostHook = func(q int, addr iommu.IOVA, n int) {
		t.Observed = append(t.Observed, addr)
	}
	return t, nil
}

// Dev is the compromised device's ID (the victim's own NIC).
func (t *Target) Dev() iommu.DeviceID { return t.Mach.Env.Dev }

// ArmSupervisor attaches the fault-domain quarantine engine with the
// given policy (payload-specific: the matrix runs unprotected by
// default so cells measure the protection model, not containment).
func (t *Target) ArmSupervisor(pol resilience.Policy) *resilience.Supervisor {
	t.Sup = resilience.Attach(t.Mach.IOMMU, t.Mach.Eng, pol)
	return t.Sup
}

// Execute runs the four phases of one payload in order on an already
// spawned proc. A phase error aborts the remaining phases (except that
// Cleanup still runs after a Verify error) and is recorded in r.Err.
func Execute(p *sim.Proc, t *Target, pl Payload, r *Result) error {
	r.Payload = pl.Name()
	r.System = t.System
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	phase := func(name string, fn func() error) error {
		if err := fn(); err != nil {
			return fmt.Errorf("%s vs %s: %s phase: %w", pl.Name(), t.System, name, err)
		}
		return nil
	}
	if err := phase("identify", func() error { return pl.Identify(p, t) }); err != nil {
		r.Err = err
		return err
	}
	if err := phase("deliver", func() error { return pl.Deliver(p, t) }); err != nil {
		r.Err = err
		return err
	}
	verifyErr := phase("verify", func() error { return pl.Verify(p, t, r) })
	if err := phase("cleanup", func() error { return pl.Cleanup(p, t) }); err != nil && verifyErr == nil {
		verifyErr = err
	}
	if verifyErr != nil {
		r.Err = verifyErr
		return verifyErr
	}
	return nil
}

// CellWindowMs is the simulated window of one campaign cell: long enough
// for the slowest payload (the fault storm spans the 10 ms deferred-flush
// timer to observe delayed containment).
const CellWindowMs = 50

// Run executes one (system, payload) cell on a fresh machine and returns
// its observed Result. Deterministic for a given seed.
func Run(system, payload string, seed int64) (Result, error) {
	pl, err := Find(payload)
	if err != nil {
		return Result{Payload: payload, System: system, Err: err}, err
	}
	t, err := NewTarget(system, seed)
	if err != nil {
		return Result{Payload: payload, System: system, Err: err}, err
	}
	r := Result{Metrics: make(map[string]float64)}
	var execErr error
	t.Mach.Eng.Spawn("campaign", 0, 0, func(p *sim.Proc) {
		execErr = Execute(p, t, pl, &r)
	})
	t.Mach.Eng.Run(cycles.FromMillis(CellWindowMs))
	r.Metrics["success"] = b2f(r.Success)
	r.Metrics["faults"] = float64(t.Mach.IOMMU.FaultCount)
	r.Metrics["blocked_dmas"] = float64(t.Mach.IOMMU.BlockedDMAs)
	t.Mach.Teardown()
	if execErr != nil {
		r.Err = execErr
	}
	return r, r.Err
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
