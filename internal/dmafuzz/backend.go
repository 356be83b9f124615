package dmafuzz

import (
	"fmt"
	"slices"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/dmaapi"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/shadow"
	"repro/internal/sim"
)

// Backends lists every protection strategy the harness runs traces
// through, in report order. noiommu is excluded: it tracks no mappings and
// is trivially insecure, so neither oracle family applies.
var Backends = []string{
	"strict", "defer", "identity+", "identity-", "selfinval",
	"swiotlb", "copy", "copy-hybrid", "copy-degraded",
}

// selfInvalTTL is the self-invalidation TTL used for the selfinval
// backend; teardownSettle must exceed it so final probes run after every
// window has closed.
const selfInvalTTL = 50

// teardownSettle is how long (ms) the epilogue sleeps after Quiesce before
// the window-must-close probes: past the selfinval TTL, the deferred flush
// timer, and hardware invalidation drains.
const teardownSettle = 60

// FaultPlan configures fault injection for a run. The zero value is a
// benign run with all oracles active.
type FaultPlan struct {
	// AllocFailEvery makes every Nth physical-page allocation fail after
	// setup (0 disables). Backends hit the failures at different internal
	// allocation counts, so the differential oracle is suspended; the
	// resource, security, and no-crash oracles stay active — error paths
	// must not leak or widen authority.
	AllocFailEvery int
	// StallCycles adds hardware latency to every IOTLB invalidation
	// (a stalled invalidation queue). Windows widen but invariants hold.
	StallCycles uint64
	// SkipInval is the deliberately reintroduced bug: the strict backend
	// skips synchronous IOTLB invalidation on unmap, opening a
	// deferred-style window the security oracle must catch.
	SkipInval bool
	// InvTimeout arms the invalidation queue's ITE model on every
	// backend: waits past this many cycles surface iommu.ErrInvTimeout
	// and run the retry/recover pipeline. Combined with StallCycles this
	// exercises recovery under a stalled queue; invariants must hold
	// because recovery over-invalidates (never under-invalidates).
	InvTimeout uint64
	// SpillNoInval is the second reintroduced bug (-inject-bug
	// spillnoinval): the copy-degraded backend's spill unmaps skip the
	// strict invalidation, opening a stale window on the spill path that
	// the security oracle must catch.
	SpillNoInval bool
}

// machine is one simulated host running one backend.
type machine struct {
	eng    *sim.Engine
	mem    *mem.Memory
	u      *iommu.IOMMU
	env    *dmaapi.Env
	mapper dmaapi.Mapper
	prof   bench.Profile // what the security oracle holds the backend to
	k      *mem.Kmalloc

	bufs map[int]mem.Buf // op index -> preallocated OS buffer
	sibs map[int]mem.Buf // op index -> co-located sibling holding a secret

	secretPage mem.Phys // never-mapped page for arbitrary probes
}

const fuzzDev = iommu.DeviceID(1)

// newMapper builds backend's mapper and returns the profile the security
// oracle holds it to. A backend is its bench.Designs entry, judged by the
// profile the paper declares for it, except for four deliberate variants.
func newMapper(backend string, env *dmaapi.Env, plan FaultPlan) (dmaapi.Mapper, bench.Profile, error) {
	switch backend {
	case "copy":
		// No length hint, and no degradation ladder: injected allocation
		// failures keep their hard-failure semantics.
		m, err := core.NewShadowMapper(env, core.WithDegrade(core.DegradeConfig{Disable: true}))
		return m, declared(bench.SysCopy), err
	case "copy-hybrid":
		// A 16 KiB max class, so large buffers take the hybrid path.
		m, err := core.NewShadowMapper(env, core.WithPoolConfig(shadow.Config{
			SizeClasses:  []int{4096, 16384},
			MaxPerClass:  16384,
			Cores:        env.Cores,
			Domains:      env.Mem.Domains(),
			DomainOfCore: env.DomainOfCore,
		}), core.WithDegrade(core.DegradeConfig{Disable: true}))
		return m, declared(bench.SysCopy), err
	case "copy-degraded":
		// A starved pool (4 slots per class, no fallback) spills most
		// mappings to the strict page-granular path: copy's profile, with
		// sub-page leaks allowed (see applySecurityOracle).
		m, err := core.NewShadowMapper(env, core.WithPoolConfig(shadow.Config{
			SizeClasses:     []int{4096, 65536},
			MaxPerClass:     4,
			Cores:           env.Cores,
			Domains:         env.Mem.Domains(),
			DomainOfCore:    env.DomainOfCore,
			DisableFallback: true,
		}), core.WithDegrade(core.DegradeConfig{
			MaxRetries:     1,
			RetryBackoff:   1024,
			SkipSpillInval: plan.SpillNoInval,
		}))
		return m, declared(bench.SysCopy), err
	case "selfinval":
		// A 50 ms TTL, so the window spans many trace ops.
		return dmaapi.NewSelfInval(env, cycles.FromMillis(selfInvalTTL)), declared(bench.SysSelfInval), nil
	}
	d, ok := bench.LookupDesign(backend)
	if !ok || !slices.Contains(Backends, backend) {
		return nil, bench.Profile{}, fmt.Errorf("dmafuzz: unknown backend %q", backend)
	}
	m, err := d.New(env)
	if lm, ok := m.(*dmaapi.LinuxMapper); ok && backend == bench.SysLinuxStrict {
		lm.SkipInval = plan.SkipInval
	}
	return m, d.Profile, err
}

// declared returns the profile the paper declares for a design.
func declared(name string) bench.Profile {
	d, _ := bench.LookupDesign(name)
	return d.Profile
}

func newMachine(backend string, tr *Trace, plan FaultPlan) (*machine, error) {
	eng := sim.NewEngine()
	m := mem.New(2)
	u := iommu.New(eng, m, cycles.Default())
	u.Queue.StallCycles = plan.StallCycles
	u.Queue.Timeout = plan.InvTimeout
	env := &dmaapi.Env{Eng: eng, Mem: m, IOMMU: u, Costs: cycles.Default(), Dev: fuzzDev, Cores: 2}

	mapper, prof, err := newMapper(backend, env, plan)
	if err != nil {
		return nil, err
	}

	mc := &machine{
		eng: eng, mem: m, u: u, env: env, mapper: mapper, prof: prof,
		k:    mem.NewKmalloc(m, nil),
		bufs: make(map[int]mem.Buf),
		sibs: make(map[int]mem.Buf),
	}

	// Pre-allocate every OpMap buffer (and sibling) in op order, before
	// any backend-dependent activity: the slab layout — and therefore
	// every page-co-location decision the probes make — is identical
	// across backends.
	for i, op := range tr.Ops {
		if op.Kind != OpMap || op.Size <= 0 || op.Size > maxMapSize {
			continue
		}
		buf, err := mc.k.Alloc(op.Dom%m.Domains(), op.Size)
		if err != nil {
			return nil, fmt.Errorf("dmafuzz: prealloc op %d: %w", i, err)
		}
		mc.bufs[i] = buf
		if op.Sib {
			// Same requested size → same kmalloc class → same slab, so
			// back-to-back allocations land on a shared page (the sub-page
			// leak the paper predicts for byte-granular sharing).
			sib, err := mc.k.Alloc(op.Dom%m.Domains(), op.Size)
			if err != nil {
				return nil, fmt.Errorf("dmafuzz: prealloc sibling op %d: %w", i, err)
			}
			if err := m.Write(sib.Addr, secretFor(i)); err != nil {
				return nil, err
			}
			mc.sibs[i] = sib
		}
	}

	// The arbitrary-probe target: an allocated, secret-bearing page no
	// backend ever maps.
	pg, err := m.AllocPages(0, 1)
	if err != nil {
		return nil, err
	}
	mc.secretPage = pg
	if err := m.Write(pg, secretFor(-1)); err != nil {
		return nil, err
	}

	// Fault injection starts only now: setup must be identical across
	// backends.
	if plan.AllocFailEvery > 0 {
		n := 0
		m.AllocFail = func(domain, pages int) bool {
			n++
			return n%plan.AllocFailEvery == 0
		}
	}
	return mc, nil
}

// maxMapSize bounds generated mapping sizes: the largest size every
// backend can serve (the swiotlb and copy pools top out at 64 KiB slots).
const maxMapSize = 65536

// secretFor returns the 8-byte planted secret for op i (i = -1 for the
// arbitrary-probe page).
func secretFor(i int) []byte {
	s := make([]byte, 8)
	for j := range s {
		s[j] = byte(0xA5 ^ (i+2)*31 ^ j*47)
	}
	return s
}

// fillPattern deterministically fills b with the op's base pattern.
func fillPattern(b []byte, op int) {
	for i := range b {
		b[i] = byte(op*31 + i*7 + 11)
	}
}

// devPayload returns the byte the device writes at index i of op's burst.
func devPayload(op, i int) byte { return byte(op*131 + i*17 + 5) }

// cpuPayload returns the byte the CPU writes at index i of op's burst.
func cpuPayload(op, i int) byte { return byte(op*89 + i*13 + 3) }
