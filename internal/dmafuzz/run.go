package dmafuzz

import (
	"bytes"

	"repro/internal/cycles"
	"repro/internal/dmaapi"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Config parameterizes a fuzzing run.
type Config struct {
	Seed     int64
	NumOps   int
	Backends []string // nil for Backends
	Plan     FaultPlan
}

// Run generates a trace from cfg.Seed and runs it through every backend,
// returning the oracle report.
func Run(cfg Config) (*Report, error) {
	return RunTrace(Generate(cfg.Seed, cfg.NumOps), cfg.Backends, cfg.Plan)
}

// RunTrace runs an existing (e.g. replayed or minimized) trace through the
// given backends and applies all three oracle families.
func RunTrace(tr *Trace, backends []string, plan FaultPlan) (*Report, error) {
	if backends == nil {
		backends = Backends
	}
	rep := &Report{Seed: tr.Seed, Ops: len(tr.Ops), Plan: plan}
	for _, name := range backends {
		br, err := runBackend(name, tr, plan)
		if err != nil {
			return nil, err
		}
		applySecurityOracle(br, plan)
		applyResourceOracle(br, plan)
		rep.Backends = append(rep.Backends, br)
	}
	if plan.AllocFailEvery == 0 {
		rep.Diffs = applyDifferentialOracle(tr, rep.Backends)
	}
	rep.Pass = len(rep.Diffs) == 0
	for _, b := range rep.Backends {
		if len(b.Violations) > 0 {
			rep.Pass = false
		}
	}
	return rep, nil
}

// extent is a half-open device-written byte range within a mapping.
type extent struct{ off, end int }

// execSlot is one streaming-mapping slot's runtime state.
type execSlot struct {
	live      bool
	opIdx     int // OpMap index that created the mapping (buffer identity)
	addr      iommu.IOVA
	buf       mem.Buf
	dir       dmaapi.Dir
	devMirror []byte   // model of device-visible content
	osMirror  []byte   // model of CPU-visible content (ToDevice checks)
	extents   []extent // device-written ranges (FromDevice definedness)
	devWrote  bool

	// Former mapping, for stale-window probes.
	hasFormer bool
	fAddr     iommu.IOVA
	fBuf      mem.Buf
}

type cohSlot struct {
	live bool
	addr iommu.IOVA
	buf  mem.Buf
}

// execState is the per-pass executor state for one backend machine.
type execState struct {
	mc     *machine
	plan   FaultPlan
	br     *BackendResult
	slots  [NumSlots]execSlot
	coh    [NumCoherentSlots]cohSlot
	shared map[int]int // OpMap index -> live mappings of that buffer
}

func newExecState(mc *machine, plan FaultPlan, br *BackendResult) *execState {
	return &execState{mc: mc, plan: plan, br: br, shared: make(map[int]int)}
}

// actorPark is the polling interval of paused/stopping background actors.
var actorPark = cycles.FromMicros(20)

// actors coordinates the concurrent device and CPU procs with the driver:
// the driver pauses them around resource snapshots (they must hold
// nothing) and stops them at the end of the run.
type actors struct {
	stop   bool
	paused bool
	idle   int
	total  int
}

func (a *actors) loop(p *sim.Proc, step func(*sim.Proc)) {
	idleMarked := false
	setIdle := func(v bool) {
		if v != idleMarked {
			if v {
				a.idle++
			} else {
				a.idle--
			}
			idleMarked = v
		}
	}
	for {
		if a.stop {
			setIdle(true)
			return
		}
		if a.paused {
			setIdle(true)
			p.Sleep(actorPark)
			continue
		}
		setIdle(false)
		step(p)
		p.Sleep(cycles.FromMicros(200))
	}
}

// barrier waits until every actor is parked idle.
func (a *actors) barrier(p *sim.Proc) {
	for a.idle < a.total {
		p.Sleep(actorPark)
	}
}

func runBackend(backend string, tr *Trace, plan FaultPlan) (*BackendResult, error) {
	mc, err := newMachine(backend, tr, plan)
	if err != nil {
		return nil, err
	}
	br := &BackendResult{Backend: backend, Violations: []string{}}
	act := &actors{total: 2}

	// Concurrent device actor: a read-only prober hammering the
	// never-mapped secret page throughout the run.
	probe := make([]byte, 8)
	mc.eng.Spawn("prober", 1, 0, func(p *sim.Proc) {
		act.loop(p, func(p *sim.Proc) {
			res := mc.u.DMARead(fuzzDev, iommu.IOVA(mc.secretPage), probe)
			br.Security.ProberReads++
			if res.Fault == nil && bytes.Equal(probe, secretFor(-1)) {
				br.Security.ProberLeaks++
			}
		})
	})
	// Concurrent CPU actor: coherent ring churn on the other core,
	// contending on the mapper's locks and allocators.
	mc.eng.Spawn("cpu-actor", 1, 0, func(p *sim.Proc) {
		ring := []byte("ring-doorbell")
		got := make([]byte, len(ring))
		act.loop(p, func(p *sim.Proc) {
			addr, buf, err := mc.mapper.AllocCoherent(p, 4096)
			if err != nil {
				if plan.AllocFailEvery == 0 {
					br.violatef("cpu-actor: coherent alloc failed: %v", err)
				}
				return
			}
			if res := mc.u.DMAWrite(fuzzDev, addr, ring); res.Fault != nil {
				br.violatef("cpu-actor: coherent device write faulted: %v", res.Fault)
			} else if err := mc.mem.Read(buf.Addr, got); err != nil || !bytes.Equal(got, ring) {
				br.violatef("cpu-actor: coherent buffer not shared")
			}
			if err := mc.mapper.FreeCoherent(p, addr, buf); err != nil {
				br.violatef("cpu-actor: coherent free failed: %v", err)
			}
		})
	})

	mc.eng.Spawn("driver", 0, 0, func(p *sim.Proc) {
		for pass := 1; pass <= 2; pass++ {
			st := newExecState(mc, plan, br)
			for i, op := range tr.Ops {
				r := st.exec(p, i, op)
				if pass == 1 {
					br.OpResults = append(br.OpResults, r)
					if r.Skipped {
						br.SkippedOps++
					} else {
						br.Executed++
					}
					if r.Err {
						br.Errors++
					}
				}
				p.Work(cycles.TagOther, 500)
			}
			st.teardown(p)
			act.paused = true
			act.barrier(p)
			acct := mc.mapper.Accounting()
			inuse := []uint64{mc.mem.InUseBytes(0), mc.mem.InUseBytes(1)}
			if pass == 1 {
				br.Resource.AccountingZero1 = acct.Zero()
				br.Resource.InUse1 = inuse
				act.paused = false
			} else {
				br.Resource.AccountingZero2 = acct.Zero()
				br.Resource.Accounting2 = acct
				br.Resource.InUse2 = inuse
				// Epilogue: after every window has provably expired, no
				// formerly used IOVA may reach an OS buffer — on ANY
				// backend (swiotlb's stale IOVAs point at its bounce
				// arena, so even it passes; its insecurity is caught by
				// the arbitrary-access probes instead).
				p.Sleep(cycles.FromMillis(teardownSettle))
				for s := range st.slots {
					sl := &st.slots[s]
					if !sl.hasFormer {
						continue
					}
					br.Security.FinalProbes++
					if w, _, _ := st.probeStaleWrite(sl.fAddr, sl.fBuf); w {
						br.Security.FinalObserved++
					}
				}
				act.stop = true
				act.barrier(p)
			}
		}
	})
	mc.eng.Run(1 << 50)
	mc.eng.Stop()
	mc.mem.Release()
	return br, nil
}

func (st *execState) exec(p *sim.Proc, i int, op Op) OpResult {
	r := OpResult{Index: i, Kind: op.Kind.String()}
	mc, br := st.mc, st.br
	benign := st.plan.AllocFailEvery == 0
	skip := func() OpResult { r.Skipped = true; return r }

	switch op.Kind {
	case OpMap:
		sl := st.slot(op.Slot)
		buf, ok := mc.bufs[i]
		dir := dmaapi.Dir(op.Dir)
		if sl == nil || sl.live || !ok || dir < dmaapi.ToDevice || dir > dmaapi.Bidirectional {
			return skip()
		}
		pat := make([]byte, buf.Size)
		fillPattern(pat, i)
		if err := mc.mem.Write(buf.Addr, pat); err != nil {
			br.violatef("op %d: cannot initialize buffer: %v", i, err)
			return r
		}
		addr, err := mc.mapper.Map(p, buf, dir)
		if err != nil {
			r.Err = true
			if benign {
				br.violatef("op %d: benign map of %d bytes failed: %v", i, buf.Size, err)
			}
			return r
		}
		*sl = execSlot{live: true, opIdx: i, addr: addr, buf: buf, dir: dir,
			osMirror: pat, devMirror: make([]byte, buf.Size)}
		if dir != dmaapi.FromDevice {
			copy(sl.devMirror, pat)
		}
		st.shared[i]++

	case OpMapOverlap:
		sl, src := st.slot(op.Slot), st.slot(op.Src)
		if sl == nil || src == nil || sl.live || !src.live || src.dir != dmaapi.ToDevice {
			return skip()
		}
		snap, err := mc.mem.Snapshot(src.buf)
		if err != nil {
			br.violatef("op %d: snapshot: %v", i, err)
			return r
		}
		addr, err := mc.mapper.Map(p, src.buf, dmaapi.ToDevice)
		if err != nil {
			r.Err = true
			if benign {
				br.violatef("op %d: benign overlapping map failed: %v", i, err)
			}
			return r
		}
		*sl = execSlot{live: true, opIdx: src.opIdx, addr: addr, buf: src.buf,
			dir: dmaapi.ToDevice, osMirror: snap, devMirror: append([]byte{}, snap...)}
		st.shared[src.opIdx]++

	case OpMapZero:
		_, err := mc.mapper.Map(p, mem.Buf{}, dmaapi.Bidirectional)
		r.Err = err != nil
		if err == nil {
			br.violatef("op %d: zero-length map accepted", i)
		}

	case OpUnmap:
		sl := st.slot(op.Slot)
		if sl == nil || !sl.live {
			return skip()
		}
		err := mc.mapper.Unmap(p, sl.addr, sl.buf.Size, sl.dir)
		if err != nil {
			r.Err = true
			br.violatef("op %d: unmap failed: %v", i, err)
		}
		snap, serr := mc.mem.Snapshot(sl.buf)
		if serr != nil {
			br.violatef("op %d: snapshot: %v", i, serr)
			return r
		}
		r.Sum = st.checkVisible(i, "unmap", sl, snap)
		st.shared[sl.opIdx]--
		*sl = execSlot{hasFormer: true, fAddr: sl.addr, fBuf: sl.buf}

	case OpDevWrite:
		sl := st.slot(op.Slot)
		if sl == nil || !sl.live || sl.dir == dmaapi.ToDevice ||
			op.Off < 0 || op.Len <= 0 || op.Off+op.Len > sl.buf.Size {
			return skip()
		}
		payload := make([]byte, op.Len)
		for j := range payload {
			payload[j] = devPayload(i, j)
		}
		res := mc.u.DMAWrite(fuzzDev, sl.addr+iommu.IOVA(op.Off), payload)
		r.Done, r.Fault = res.Done, res.Fault != nil
		if res.Fault != nil {
			br.violatef("op %d: benign device write faulted: %v", i, res.Fault)
			return r
		}
		copy(sl.devMirror[op.Off:], payload)
		sl.extents = append(sl.extents, extent{op.Off, op.Off + op.Len})
		sl.devWrote = true

	case OpDevRead:
		sl := st.slot(op.Slot)
		if sl == nil || !sl.live || sl.dir == dmaapi.FromDevice ||
			op.Off < 0 || op.Len <= 0 || op.Off+op.Len > sl.buf.Size {
			return skip()
		}
		got := make([]byte, op.Len)
		res := mc.u.DMARead(fuzzDev, sl.addr+iommu.IOVA(op.Off), got)
		r.Done, r.Fault = res.Done, res.Fault != nil
		if res.Fault != nil {
			br.violatef("op %d: benign device read faulted: %v", i, res.Fault)
			return r
		}
		if !bytes.Equal(got, sl.devMirror[op.Off:op.Off+op.Len]) {
			br.violatef("op %d: device read wrong data (slot %d, %d@%d)", i, op.Slot, op.Len, op.Off)
		}
		r.Sum = checksum(got)

	case OpSyncCPU:
		sl := st.slot(op.Slot)
		if sl == nil || !sl.live || sl.dir == dmaapi.ToDevice {
			return skip()
		}
		if err := mc.mapper.SyncForCPU(p, sl.addr, sl.buf.Size, sl.dir); err != nil {
			r.Err = true
			br.violatef("op %d: sync_for_cpu failed: %v", i, err)
			return r
		}
		snap, serr := mc.mem.Snapshot(sl.buf)
		if serr != nil {
			br.violatef("op %d: snapshot: %v", i, serr)
			return r
		}
		r.Sum = st.checkVisible(i, "sync_for_cpu", sl, snap)

	case OpCPUWriteSync:
		sl := st.slot(op.Slot)
		if sl == nil || !sl.live || sl.dir == dmaapi.FromDevice || st.shared[sl.opIdx] > 1 ||
			op.Off < 0 || op.Len <= 0 || op.Off+op.Len > sl.buf.Size {
			return skip()
		}
		// A Bidirectional mapping may hold device writes the CPU hasn't
		// seen; sync them out first so copying and zero-copy backends
		// converge on the same buffer state before the CPU writes.
		if sl.dir == dmaapi.Bidirectional && sl.devWrote {
			if err := mc.mapper.SyncForCPU(p, sl.addr, sl.buf.Size, sl.dir); err != nil {
				r.Err = true
				br.violatef("op %d: pre-write sync_for_cpu failed: %v", i, err)
				return r
			}
		}
		payload := make([]byte, op.Len)
		for j := range payload {
			payload[j] = cpuPayload(i, j)
		}
		if err := mc.mem.Write(sl.buf.Addr+mem.Phys(op.Off), payload); err != nil {
			br.violatef("op %d: cpu write: %v", i, err)
			return r
		}
		copy(sl.osMirror[op.Off:], payload)
		copy(sl.devMirror[op.Off:], payload)
		if err := mc.mapper.SyncForDevice(p, sl.addr, sl.buf.Size, sl.dir); err != nil {
			r.Err = true
			br.violatef("op %d: sync_for_device failed: %v", i, err)
		}

	case OpProbeStale:
		sl := st.slot(op.Slot)
		if sl == nil || sl.live || !sl.hasFormer || st.overlapsLive(sl.fBuf) {
			return skip()
		}
		window, reachable, fault := st.probeStaleWrite(sl.fAddr, sl.fBuf)
		r.Window, r.Fault = window, fault
		br.Security.StaleProbes++
		// Eligible = the stale translation still resolved, so the probe's
		// bytes provably landed somewhere. On a backend whose window maps
		// the former IOVA straight at the OS buffer (deferred designs),
		// eligibility therefore forces observation — the positive check
		// can't be dodged by IOTLB evictions or already-flushed queues.
		if reachable {
			br.Security.StaleEligible++
		}
		if window {
			br.Security.StaleObserved++
		}

	case OpProbeSubPage:
		sl := st.slot(op.Slot)
		if sl == nil || !sl.live || sl.dir == dmaapi.FromDevice {
			return skip()
		}
		sib, ok := mc.sibs[sl.opIdx]
		if !ok || !mem.SamePage(sl.buf, sib) || sib.Addr == sl.buf.Addr {
			return skip()
		}
		// The sibling may sit before or after the buffer within the
		// shared page; the page-granular mapping covers it either way.
		// (Under copying backends the offset lands in recycled shadow or
		// bounce memory — or faults — never in the sibling.)
		delta := int64(sib.Addr) - int64(sl.buf.Addr)
		got := make([]byte, 8)
		res := mc.u.DMARead(fuzzDev, iommu.IOVA(int64(sl.addr)+delta), got)
		r.Fault = res.Fault != nil
		r.Leak = res.Fault == nil && bytes.Equal(got, secretFor(sl.opIdx))
		br.Security.SubPageEligible++
		if r.Leak {
			br.Security.SubPageObserved++
		}

	case OpProbeArbitrary:
		got := make([]byte, 8)
		res := mc.u.DMARead(fuzzDev, iommu.IOVA(mc.secretPage), got)
		r.Fault = res.Fault != nil
		r.Leak = res.Fault == nil && bytes.Equal(got, secretFor(-1))
		br.Security.ArbitraryProbes++
		if r.Leak {
			br.Security.ArbitraryLeaks++
		}

	case OpCoherentAlloc:
		if op.Slot < 0 || op.Slot >= NumCoherentSlots || st.coh[op.Slot].live ||
			op.Size <= 0 || op.Size > maxMapSize {
			return skip()
		}
		addr, buf, err := mc.mapper.AllocCoherent(p, op.Size)
		if err != nil {
			r.Err = true
			if benign {
				br.violatef("op %d: benign coherent alloc failed: %v", i, err)
			}
			return r
		}
		st.coh[op.Slot] = cohSlot{live: true, addr: addr, buf: buf}
		n := op.Size
		if n > 16 {
			n = 16
		}
		payload := make([]byte, n)
		for j := range payload {
			payload[j] = devPayload(i, j)
		}
		if res := mc.u.DMAWrite(fuzzDev, addr, payload); res.Fault != nil {
			br.violatef("op %d: coherent device write faulted: %v", i, res.Fault)
			return r
		}
		got := make([]byte, n)
		if err := mc.mem.Read(buf.Addr, got); err != nil || !bytes.Equal(got, payload) {
			br.violatef("op %d: coherent buffer not CPU-visible", i)
		}
		r.Sum = checksum(got)

	case OpCoherentFree:
		if op.Slot < 0 || op.Slot >= NumCoherentSlots || !st.coh[op.Slot].live {
			return skip()
		}
		c := st.coh[op.Slot]
		st.coh[op.Slot] = cohSlot{}
		if err := mc.mapper.FreeCoherent(p, c.addr, c.buf); err != nil {
			r.Err = true
			br.violatef("op %d: coherent free failed: %v", i, err)
		}

	case OpQuiesce:
		mc.mapper.Quiesce(p)

	default:
		return skip()
	}
	return r
}

func (st *execState) slot(i int) *execSlot {
	if i < 0 || i >= NumSlots {
		return nil
	}
	return &st.slots[i]
}

// checkVisible verifies the OS-visible buffer state after an ownership
// transfer to the CPU (unmap or sync_for_cpu) against the model, and
// returns the checksum of the DEFINED bytes: for FromDevice mappings only
// device-written extents are defined (copying backends legitimately fill
// the rest with recycled shadow contents), for ToDevice/Bidirectional the
// whole buffer is.
func (st *execState) checkVisible(i int, what string, sl *execSlot, snap []byte) string {
	switch sl.dir {
	case dmaapi.ToDevice:
		if !bytes.Equal(snap, sl.osMirror) {
			st.br.violatef("op %d: %s: ToDevice buffer modified", i, what)
		}
		return checksum(snap)
	case dmaapi.Bidirectional:
		if !bytes.Equal(snap, sl.devMirror) {
			st.br.violatef("op %d: %s: bidirectional buffer diverged from model", i, what)
		}
		return checksum(snap)
	default: // FromDevice
		var parts [][]byte
		for _, e := range sl.extents {
			if !bytes.Equal(snap[e.off:e.end], sl.devMirror[e.off:e.end]) {
				st.br.violatef("op %d: %s: device-written bytes [%d,%d) lost", i, what, e.off, e.end)
			}
			parts = append(parts, snap[e.off:e.end])
		}
		return checksum(parts...)
	}
}

// overlapsLive reports whether buf shares a physical page with any live
// mapping's buffer — in which case a stale probe of buf's pages could
// legitimately succeed (identity designs keep shared pages mapped) and
// the probe is skipped. The decision only depends on pre-allocated buffer
// addresses and slot states, so it is identical across backends.
func (st *execState) overlapsLive(buf mem.Buf) bool {
	lo, hi := buf.Addr.PFN(), (buf.Addr + mem.Phys(buf.Size-1)).PFN()
	for s := range st.slots {
		sl := &st.slots[s]
		if !sl.live {
			continue
		}
		slo, shi := sl.buf.Addr.PFN(), (sl.buf.Addr + mem.Phys(sl.buf.Size-1)).PFN()
		if lo <= shi && slo <= hi {
			return true
		}
	}
	return false
}

// probeStaleWrite performs a malicious device write through a formerly
// mapped IOVA and reports whether it reached the OS buffer (the
// vulnerability window), whether the stale translation still resolved at
// all (reachable — if it did, the bytes land SOMEWHERE, and a deferred
// backend must show the window), and whether it faulted. Whatever memory
// the write lands in — the OS buffer, a recycled shadow or bounce slot,
// a reused IOVA's new target — is snapshotted through the current
// translation first and restored afterwards, so probes never perturb
// state other backends would see differently.
func (st *execState) probeStaleWrite(addr iommu.IOVA, buf mem.Buf) (window, reachable, faulted bool) {
	mc := st.mc
	n := buf.Size
	if n > 16 {
		n = 16
	}
	// Snapshot the translation targets (pre-translating caches exactly
	// the IOTLB entries the write itself would).
	type saved struct {
		phys mem.Phys
		old  []byte
	}
	var saves []saved
	for done := 0; done < n; {
		at := addr + iommu.IOVA(done)
		phys, _, fault := mc.u.Translate(fuzzDev, at, iommu.PermWrite)
		if fault != nil {
			break
		}
		if done == 0 {
			reachable = true
		}
		seg := mem.PageSize - at.Offset()
		if seg > n-done {
			seg = n - done
		}
		old := make([]byte, seg)
		if err := mc.mem.Read(phys, old); err == nil {
			saves = append(saves, saved{phys, old})
		}
		done += seg
	}
	before, err := mc.mem.Snapshot(mem.Buf{Addr: buf.Addr, Size: n})
	if err != nil {
		return false, reachable, false
	}
	// Complementing every byte guarantees that any byte that lands in the
	// OS buffer changes it — the window can't hide behind a payload that
	// happens to equal the buffer's current content.
	payload := make([]byte, n)
	for j := range payload {
		payload[j] = ^before[j]
	}
	res := mc.u.DMAWrite(fuzzDev, addr, payload)
	after, _ := mc.mem.Snapshot(mem.Buf{Addr: buf.Addr, Size: n})
	window = !bytes.Equal(before, after)
	for _, s := range saves {
		_ = mc.mem.Write(s.phys, s.old)
	}
	return window, reachable, res.Fault != nil
}

// teardown unmaps every live mapping, frees every coherent allocation,
// and drains deferred work; former-mapping records stay behind for the
// final window-must-close probes.
func (st *execState) teardown(p *sim.Proc) {
	for s := range st.slots {
		sl := &st.slots[s]
		if !sl.live {
			continue
		}
		if err := st.mc.mapper.Unmap(p, sl.addr, sl.buf.Size, sl.dir); err != nil {
			st.br.violatef("teardown: unmap slot %d failed: %v", s, err)
		}
		st.shared[sl.opIdx]--
		*sl = execSlot{hasFormer: true, fAddr: sl.addr, fBuf: sl.buf}
	}
	for c := range st.coh {
		if !st.coh[c].live {
			continue
		}
		if err := st.mc.mapper.FreeCoherent(p, st.coh[c].addr, st.coh[c].buf); err != nil {
			st.br.violatef("teardown: coherent free slot %d failed: %v", c, err)
		}
		st.coh[c] = cohSlot{}
	}
	st.mc.mapper.Quiesce(p)
}
