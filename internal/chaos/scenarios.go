package chaos

import (
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/dmaapi"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/netstack"
	"repro/internal/resilience"
	"repro/internal/shadow"
)

// Scenario is one named chaos experiment.
type Scenario struct {
	Name  string
	Title string
	Run   func(Config) (*bench.Table, error)
}

// Scenarios lists every chaos experiment, in report order.
var Scenarios = []Scenario{
	{"faultstorm", "Fault storm from a hostile device", FaultStorm},
	{"iovascan", "IOVA-scanning device (reconnaissance)", IOVAScan},
	{"queuestall", "Invalidation-queue stall (ITE recovery)", QueueStall},
	{"poolsqueeze", "Shadow-pool exhaustion (degradation ladder)", PoolSqueeze},
}

// Find returns the named scenario.
func Find(name string) (Scenario, error) {
	for _, s := range Scenarios {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("chaos: unknown scenario %q", name)
}

// scheduleStorm fires bursts of DMA writes from the attacker device to
// unmapped IOVAs: every write misses the IOTLB, occupies the (serialized)
// page walker and records a fault — the cheapest way a hostile device
// spends the host's shared IOMMU resources.
func scheduleStorm(mc *machine, rng *rand.Rand, start, end, period uint64, burst int) {
	junk := make([]byte, 64)
	var tick func(now uint64)
	tick = func(now uint64) {
		if now >= end {
			return
		}
		for i := 0; i < burst; i++ {
			iova := iommu.IOVA((uint64(rng.Intn(1 << 20))) << mem.PageShift)
			mc.IOMMU.DMAWrite(AttackDev, iova, junk)
		}
		mc.Eng.Schedule(now+period, tick)
	}
	mc.Eng.Schedule(start, tick)
}

// FaultStorm: device A floods the IOMMU with faulting DMAs while device B
// (the victim NIC) runs an RX stream. With resilience, the token bucket
// quarantines A quickly (its DMAs then die at the root port for a map
// lookup, freeing the walker), the cool-down readmits it, and the still-
// running storm re-quarantines it — goodput stays near baseline. Without
// resilience, A's misses monopolize the serialized page walker and B's
// goodput collapses.
func FaultStorm(cfg Config) (*bench.Table, error) {
	cfg = cfg.norm()
	window := cycles.FromMillis(cfg.WindowMs)
	attackStart := window / 5
	pol := cfg.Policy
	if pol == (resilience.Policy{}) {
		pol = chaosPolicy()
	}

	t := &bench.Table{
		Name:  "chaos-faultstorm",
		Title: "Chaos: fault storm from device A, RX goodput of device B (" + cfg.System + ")",
		Note: fmt.Sprintf("storm: 16 faulting DMAs per 1000 cycles from t=%.0fus; seed %d",
			cycles.Micros(attackStart), cfg.Seed),
		Columns: []string{"variant", "gbps", "contain%", "faults", "blocked", "quar", "readm", "t-quar us", "ring ovfl"},
	}
	t.SetWinner("gbps", false)

	variants := []struct {
		name              string
		attack, resilient bool
	}{
		{"baseline", false, true},
		{"resilience", true, true},
		{"unprotected", true, false},
	}
	outs := make([]map[string]float64, len(variants))
	err := cfg.Farm.Map(len(variants), func(i int) error {
		v := variants[i]
		mc, err := newMachine(cfg, variant{resilient: v.resilient, policy: pol})
		if err != nil {
			return fmt.Errorf("faultstorm/%s: %w", v.name, err)
		}
		defer mc.Teardown()
		outs[i] = mc.runVictim(cfg, attackStart, func(mc *machine) {
			if v.attack {
				rng := rand.New(rand.NewSource(cfg.Seed))
				scheduleStorm(mc, rng, attackStart, window, 1000, 16)
			}
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Containment is relative to the baseline variant's goodput, so it can
	// only be computed after the merge — variants run concurrently.
	baseGbps := outs[0]["gbps"]
	for i, v := range variants {
		ms := outs[i]
		contain := 0.0
		if baseGbps > 0 {
			contain = 100 * ms["gbps"] / baseGbps
		}
		ms["containment_pct"] = contain
		t.Point(v.name, cfg.System, ms)
		t.AddRow(v.name, fmtGbps(ms["gbps"]), fmt.Sprintf("%.1f", contain),
			fmt.Sprintf("%.0f", ms["faults"]), fmt.Sprintf("%.0f", ms["blocked_dmas"]),
			fmt.Sprintf("%.0f", ms["quarantines"]), fmt.Sprintf("%.0f", ms["readmits"]),
			fmt.Sprintf("%.1f", ms["time_to_quarantine_us"]), fmt.Sprintf("%.0f", ms["faultring_overflow"]))
	}
	return t, nil
}

// scanner counts the attacker's view of an IOVA sweep.
type scanner struct {
	attempts, hits, faults, blocked uint64
}

// scheduleScan sweeps the attacker cyclically across a page range that
// contains a small window of its own mappings: hits tell the scanner
// where live DMA windows are (reconnaissance), misses fault.
func scheduleScan(mc *machine, sc *scanner, base iommu.IOVA, span int, start, end, period uint64, burst int) {
	junk := make([]byte, 16)
	cursor := 0
	var tick func(now uint64)
	tick = func(now uint64) {
		if now >= end {
			return
		}
		for i := 0; i < burst; i++ {
			iova := base + iommu.IOVA(uint64(cursor)<<mem.PageShift)
			cursor = (cursor + 1) % span
			sc.attempts++
			res := mc.IOMMU.DMAWrite(AttackDev, iova, junk)
			switch {
			case res.Fault == nil:
				sc.hits++
			case res.Fault.Reason == "device quarantined":
				sc.blocked++
			default:
				sc.faults++
			}
		}
		mc.Eng.Schedule(now+period, tick)
	}
	mc.Eng.Schedule(start, tick)
}

// IOVAScan: a compromised device sweeps a 512-page IOVA range looking for
// mapped windows (4 pages of its own mappings stand in for them). The
// policy here is permanent quarantine (NoReadmit): a scanning device gets
// a handful of probes before its bucket drains, bounding reconnaissance;
// unprotected, it scans forever and keeps hitting.
func IOVAScan(cfg Config) (*bench.Table, error) {
	cfg = cfg.norm()
	window := cycles.FromMillis(cfg.WindowMs)
	attackStart := window / 5
	pol := cfg.Policy
	if pol == (resilience.Policy{}) {
		pol = chaosPolicy()
		pol.Cooldown = resilience.NoReadmit // scanners don't get a second chance
	}
	const (
		scanBase = iommu.IOVA(0x4000 << mem.PageShift)
		scanSpan = 512 // pages swept
		winPages = 4   // mapped window inside the swept range
	)

	t := &bench.Table{
		Name:  "chaos-iovascan",
		Title: "Chaos: IOVA-scanning device vs RX goodput (" + cfg.System + ")",
		Note: fmt.Sprintf("scan: 8 probes per 2000 cycles over %d pages (%d mapped) from t=%.0fus; seed %d",
			scanSpan, winPages, cycles.Micros(attackStart), cfg.Seed),
		Columns: []string{"variant", "gbps", "probes", "hits", "scan faults", "blocked", "quar"},
	}
	t.SetWinner("gbps", false)

	variants := []struct {
		name              string
		attack, resilient bool
	}{
		{"baseline", false, true},
		{"resilience", true, true},
		{"unprotected", true, false},
	}
	outs := make([]map[string]float64, len(variants))
	err := cfg.Farm.Map(len(variants), func(i int) error {
		v := variants[i]
		mc, err := newMachine(cfg, variant{resilient: v.resilient, policy: pol})
		if err != nil {
			return fmt.Errorf("iovascan/%s: %w", v.name, err)
		}
		defer mc.Teardown()
		// The attacker's own live window: a normally-operating device has
		// some mappings; the scanner hunts for exactly such windows.
		phys, err := mc.Mem.AllocPages(0, winPages)
		if err != nil {
			return err
		}
		off := (scanSpan / 2) << mem.PageShift
		if err := mc.IOMMU.Map(AttackDev, scanBase+iommu.IOVA(off), phys,
			winPages*mem.PageSize, iommu.PermRead|iommu.PermWrite); err != nil {
			return err
		}
		sc := &scanner{}
		ms := mc.runVictim(cfg, attackStart, func(mc *machine) {
			if v.attack {
				scheduleScan(mc, sc, scanBase, scanSpan, attackStart, window, 2000, 8)
			}
		})
		ms["scan_attempts"] = float64(sc.attempts)
		ms["scan_hits"] = float64(sc.hits)
		ms["scan_faults"] = float64(sc.faults)
		ms["scan_blocked"] = float64(sc.blocked)
		outs[i] = ms
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, v := range variants {
		ms := outs[i]
		t.Point(v.name, cfg.System, ms)
		t.AddRow(v.name, fmtGbps(ms["gbps"]),
			fmt.Sprintf("%.0f", ms["scan_attempts"]), fmt.Sprintf("%.0f", ms["scan_hits"]),
			fmt.Sprintf("%.0f", ms["scan_faults"]), fmt.Sprintf("%.0f", ms["scan_blocked"]),
			fmt.Sprintf("%.0f", ms["quarantines"]))
	}
	return t, nil
}

// QueueStall: the invalidation queue's hardware head stalls mid-run
// (invqueue.StallCycles). With an ITE deadline armed (InvQueue.Timeout),
// waiters time out, retry briefly and then drain-and-recover, keeping
// unmap latency bounded; with Timeout=0 (stock behavior) every strict
// unmap eats the full stall and goodput collapses for the phase.
func QueueStall(cfg Config) (*bench.Table, error) {
	cfg = cfg.norm()
	window := cycles.FromMillis(cfg.WindowMs)
	phaseStart, phaseEnd := window/5, 3*window/5
	const stall = 50000 // cycles of extra hardware latency per invalidation

	t := &bench.Table{
		Name:  "chaos-queuestall",
		Title: "Chaos: invalidation-queue stall, RX goodput (" + cfg.System + ")",
		Note: fmt.Sprintf("stall: +%d cycles/invalidation during t=[%.0f,%.0f]us; ITE timeout 2048, 1 retry; seed %d",
			stall, cycles.Micros(phaseStart), cycles.Micros(phaseEnd), cfg.Seed),
		Columns: []string{"variant", "gbps", "timeouts", "recoveries", "frames"},
	}
	t.SetWinner("gbps", false)

	variants := []struct {
		name         string
		stallOn, ite bool
	}{
		{"baseline", false, true},
		{"resilience", true, true},
		{"unprotected", true, false},
	}
	outs := make([]map[string]float64, len(variants))
	err := cfg.Farm.Map(len(variants), func(i int) error {
		v := variants[i]
		mc, err := newMachine(cfg, variant{resilient: true, policy: chaosPolicy()})
		if err != nil {
			return fmt.Errorf("queuestall/%s: %w", v.name, err)
		}
		defer mc.Teardown()
		if v.ite {
			mc.IOMMU.Queue.Timeout = 2048
			mc.IOMMU.Queue.MaxRetries = 1
		}
		outs[i] = mc.runVictim(cfg, phaseStart, func(mc *machine) {
			if v.stallOn {
				mc.Eng.Schedule(phaseStart, func(uint64) { mc.IOMMU.Queue.StallCycles = stall })
				mc.Eng.Schedule(phaseEnd, func(uint64) { mc.IOMMU.Queue.StallCycles = 0 })
			}
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, v := range variants {
		ms := outs[i]
		t.Point(v.name, cfg.System, ms)
		t.AddRow(v.name, fmtGbps(ms["gbps"]),
			fmt.Sprintf("%.0f", ms["invq_timeouts"]), fmt.Sprintf("%.0f", ms["invq_recoveries"]),
			fmt.Sprintf("%.0f", ms["frames"]))
	}
	return t, nil
}

// squeezeMapper builds the copy strategy over a deliberately tiny,
// hard-bounded shadow pool (DisableFallback), so pool pressure surfaces
// as shadow.ErrPoolExhausted and the degradation ladder carries the load.
func squeezeMapper(ladder bool) func(env *dmaapi.Env) (dmaapi.Mapper, error) {
	return func(env *dmaapi.Env) (dmaapi.Mapper, error) {
		pool := shadow.Config{
			SizeClasses:     []int{4096, 65536},
			MaxPerClass:     48,
			Cores:           env.Cores,
			Domains:         env.Mem.Domains(),
			DomainOfCore:    env.DomainOfCore,
			DisableFallback: true,
		}
		opts := []core.Option{core.WithHint(netstack.PacketLenHint), core.WithPoolConfig(pool)}
		if ladder {
			// One short retry before spilling: under a hard-bounded pool
			// the retry only pays off when a concurrent release races in.
			opts = append(opts, core.WithDegrade(core.DegradeConfig{MaxRetries: 1, RetryBackoff: 2048}))
		} else {
			opts = append(opts, core.WithDegrade(core.DegradeConfig{Disable: true}))
		}
		return core.NewShadowMapper(env, opts...)
	}
}

// PoolSqueeze: the copy strategy's shadow pool is starved (48 buffers per
// class/domain against 256 ring buffers per queue) and a mid-run
// allocation-failure phase (mem.AllocFail) blocks pool growth outright.
// With the degradation ladder armed, maps retry then spill to strict
// per-buffer mappings and the stream keeps flowing — the cost shows up as
// resilience.* cycles in the profile, not as datapath failure. With the
// ladder disabled, the first hard exhaustion kills the datapath.
func PoolSqueeze(cfg Config) (*bench.Table, error) {
	cfg = cfg.norm()
	cfg.System = bench.SysCopy // the scenario is about the copy strategy's pool
	if cfg.RingSize == 256 {
		cfg.RingSize = 96 // shallow rings keep bring-up well inside the window
	}
	window := cycles.FromMillis(cfg.WindowMs)

	t := &bench.Table{
		Name:  "chaos-poolsqueeze",
		Title: "Chaos: shadow-pool exhaustion, RX goodput (copy + degradation ladder)",
		Note: fmt.Sprintf("pool: 48 bufs/class hard-bounded; alloc failures injected for window/3 after bring-up; seed %d",
			cfg.Seed),
		Columns: []string{"variant", "gbps", "retries", "spills", "backpressure", "dead", "resil cycles"},
	}
	t.SetWinner("gbps", false)

	variants := []struct {
		name            string
		squeeze, ladder bool
	}{
		{"baseline", false, true},
		{"resilience", true, true},
		{"unprotected", true, false},
	}
	outs := make([]map[string]float64, len(variants))
	err := cfg.Farm.Map(len(variants), func(i int) error {
		sv := variants[i]
		v := variant{resilient: true, policy: chaosPolicy(), observe: true}
		if sv.squeeze {
			v.mapperFn = squeezeMapper(sv.ladder)
		}
		mc, err := newMachine(cfg, v)
		if err != nil {
			return fmt.Errorf("poolsqueeze/%s: %w", sv.name, err)
		}
		defer mc.Teardown()
		outs[i] = mc.runVictim(cfg, 0, func(mc *machine) {
			if sv.squeeze {
				// Anchor the pressure phase on actual bring-up completion
				// so the injected failures hit pool growth, never the
				// driver's own setup kmallocs.
				mc.onSetupDone = func(now uint64) {
					mc.Eng.Schedule(now+window/10, func(uint64) {
						mc.Mem.AllocFail = func(domain, pages int) bool { return true }
					})
					mc.Eng.Schedule(now+window/10+window/3, func(uint64) { mc.Mem.AllocFail = nil })
				}
			}
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, sv := range variants {
		ms := outs[i]
		t.Point(sv.name, cfg.System, ms)
		t.AddRow(sv.name, fmtGbps(ms["gbps"]),
			fmt.Sprintf("%.0f", ms["degraded_retries"]), fmt.Sprintf("%.0f", ms["degraded_spills"]),
			fmt.Sprintf("%.0f", ms["backpressure_fails"]+ms["backpressure_drops"]),
			fmt.Sprintf("%.0f", ms["datapath_dead"]), fmt.Sprintf("%.0f", ms["resilience_cycles"]))
	}
	return t, nil
}
