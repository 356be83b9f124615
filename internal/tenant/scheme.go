package tenant

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/dmaapi"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/nic"
)

// scheme is one protection design for sharing the NIC across
// nontrusting tenants. attach/grant/revoke manage the tenant's grant
// table (registration-time, off the per-packet path in every scheme);
// deliver executes one arriving frame in engine context; complete runs
// the application side of one completion on a datapath proc.
type scheme interface {
	name() string
	attach(m *Machine, t *Tenant) error
	// grant registers an extra region (the replay program's scratch
	// page) and returns its grant-table entry.
	grant(m *Machine, t *Tenant, buf mem.Buf) (*Grant, error)
	// revoke deregisters a grant: epoch bump + window unmap under
	// capability, liveness drop under the others.
	revoke(m *Machine, t *Tenant, g *Grant)
	// descAddr translates a physical address inside t's main region
	// into the scheme's descriptor address space.
	descAddr(t *Tenant, p mem.Phys) uint64
	deliver(m *Machine, t *Tenant, now uint64)
	complete(m *Machine, q *dpQueue, j dpJob)
}

func newScheme(name string) scheme {
	switch name {
	case SchemeUnprotected:
		return &unprotected{}
	case SchemeCapability:
		return &capability{}
	case SchemeShadowCopy:
		return &shadowCopy{}
	}
	panic(fmt.Sprintf("tenant: unknown scheme %q", name)) // caught by normalize
}

// popDesc is the zero-copy dequeue path: the hostile tenant's program
// keeps its own ring topped up (a spinning attacker app); benign rings
// refill via repost on the datapath procs.
func popDesc(m *Machine, t *Tenant, now uint64) (AppDesc, bool) {
	if t.Hostile && t.ring.Len() == 0 {
		m.hostile.refill(m, t, now)
	}
	d, ok := t.ring.Pop()
	if !ok {
		t.Stats.NoBufDrops++
	}
	return d, ok
}

// appComplete is the shared application half of a zero-copy completion:
// poll-mode consume plus descriptor repost, charged on the datapath proc.
func appComplete(m *Machine, q *dpQueue, j dpJob) {
	p := q.proc
	t := j.t
	p.SpanEnter("tenant.consume")
	p.Charge(cycles.TagOther, consumeCycles)
	t.Stats.Frames++
	t.Stats.Bytes += uint64(j.n)
	if !t.Hostile {
		// The app is done with the buffer: repost the same descriptor.
		p.Charge(cycles.TagOther, repostCycles)
		t.ring.Post(j.d)
	}
	p.SpanExit()
}

// unprotected is the shared-queue baseline: IOMMU passthrough,
// descriptors carry raw physical addresses, nothing validates them.
type unprotected struct{}

func (s *unprotected) name() string { return SchemeUnprotected }

func (s *unprotected) attach(m *Machine, t *Tenant) error {
	m.U.SetPassthrough(nicDev, true)
	t.grants = append(t.grants, &Grant{
		Region: t.Region, Base: uint64(t.Region.Addr), Live: true,
	})
	return nil
}

func (s *unprotected) grant(m *Machine, t *Tenant, buf mem.Buf) (*Grant, error) {
	g := &Grant{Region: buf, Base: uint64(buf.Addr), Live: true}
	t.grants = append(t.grants, g)
	return g, nil
}

func (s *unprotected) revoke(m *Machine, t *Tenant, g *Grant) {
	// Nothing enforces grants here: revocation is bookkeeping only,
	// which is exactly the stale-descriptor hole the replay program hits.
	g.Live = false
}

func (s *unprotected) descAddr(t *Tenant, p mem.Phys) uint64 { return uint64(p) }

func (s *unprotected) deliver(m *Machine, t *Tenant, now uint64) {
	d, ok := popDesc(m, t, now)
	if !ok {
		return
	}
	n := min(len(m.payload), d.Len)
	res := m.U.DMAWrite(nicDev, iommu.IOVA(d.Addr), m.payload[:n])
	if res.Fault != nil {
		t.Stats.DMAFaults++
		return
	}
	m.enqueue(t, dpJob{t: t, d: d, n: n}, now+res.Latency)
}

func (s *unprotected) complete(m *Machine, q *dpQueue, j dpJob) { appComplete(m, q, j) }

// capability is the CAPIO-style design: per-tenant IOVA windows granted
// at registration, descriptors validated by a trusted arbiter against
// the posting tenant's grant table (bounds + epoch) before DMA.
type capability struct{}

func (s *capability) name() string { return SchemeCapability }

func (t *Tenant) winTop() uint64 {
	top := uint64(capWinBase) + uint64(t.ID)*capWinStride
	for _, g := range t.grants {
		if end := g.Base + uint64(g.Region.Size); end > top {
			top = end
		}
	}
	return top
}

func (s *capability) attach(m *Machine, t *Tenant) error {
	return s.mapGrant(m, t, t.Region)
}

func (s *capability) mapGrant(m *Machine, t *Tenant, buf mem.Buf) error {
	base := iommu.IOVA(t.winTop())
	if err := m.U.Map(nicDev, base, buf.Addr, buf.Size, dmaapi.FromDevice.Perm()); err != nil {
		return fmt.Errorf("capability window tenant %d: %w", t.ID, err)
	}
	t.grants = append(t.grants, &Grant{
		Region: buf, Base: uint64(base), Live: true,
	})
	return nil
}

func (s *capability) grant(m *Machine, t *Tenant, buf mem.Buf) (*Grant, error) {
	if err := s.mapGrant(m, t, buf); err != nil {
		return nil, err
	}
	return t.grants[len(t.grants)-1], nil
}

func (s *capability) revoke(m *Machine, t *Tenant, g *Grant) {
	g.Live = false
	g.Epoch++ // stale capabilities fail the epoch check from now on
	_ = m.U.Unmap(nicDev, iommu.IOVA(g.Base), g.Region.Size)
	// Defense in depth: even if a stale descriptor slipped past the
	// arbiter, the translation is gone and the IOTLB entry shot down.
	m.U.TLB().InvalidatePages(nicDev, iommu.IOVA(g.Base).Page(),
		uint64((g.Region.Size+mem.PageSize-1)/mem.PageSize))
}

func (s *capability) descAddr(t *Tenant, p mem.Phys) uint64 {
	g := t.mainGrant()
	return g.Base + uint64(p-g.Region.Addr)
}

func (s *capability) deliver(m *Machine, t *Tenant, now uint64) {
	d, ok := popDesc(m, t, now)
	if !ok {
		return
	}
	// The trusted arbiter validates before any DMA is issued: the
	// descriptor must lie wholly inside one of the *posting* tenant's
	// live grants and carry that grant's current epoch.
	if g := t.findGrant(d.Addr, d.Len, d.Epoch, true); g == nil {
		m.violation(t, d, now, "capability reject: descriptor outside live grant/epoch")
		return
	}
	n := min(len(m.payload), d.Len)
	res := m.U.DMAWrite(nicDev, iommu.IOVA(d.Addr), m.payload[:n])
	if res.Fault != nil {
		t.Stats.DMAFaults++
		return
	}
	m.enqueue(t, dpJob{t: t, d: d, n: n}, now+validateCycles+res.Latency)
}

func (s *capability) complete(m *Machine, q *dpQueue, j dpJob) { appComplete(m, q, j) }

// shadowCopy is the paper's copy design scoped per tenant: the device
// only ever sees permanently-mapped per-tenant shadow rings; trusted
// datapath cores bounds-check the tenant-posted destination and copy
// frames out. Tenant memory is never device-visible, so there is no
// per-packet map/unmap and no IOTLB invalidation on the hot path.
type shadowCopy struct{}

func (s *shadowCopy) name() string { return SchemeShadowCopy }

func (s *shadowCopy) attach(m *Machine, t *Tenant) error {
	slots := m.cfg.RingSize
	area := slots * m.cfg.BufSize
	pages := (area + mem.PageSize - 1) / mem.PageSize
	base, err := m.Mem.AllocPages(0, pages)
	if err != nil {
		return fmt.Errorf("shadow ring tenant %d: %w", t.ID, err)
	}
	t.shadowArea = mem.Buf{Addr: base, Size: pages * mem.PageSize}
	iova := shadowWinBase + iommu.IOVA(uint64(t.ID)*capWinStride)
	if err := m.U.Map(nicDev, iova, base, t.shadowArea.Size, dmaapi.FromDevice.Perm()); err != nil {
		return fmt.Errorf("shadow map tenant %d: %w", t.ID, err)
	}
	t.freeSlots = nic.NewRingOf[int](slots)
	for i := 0; i < slots; i++ {
		t.freeSlots.Post(i)
	}
	t.grants = append(t.grants, &Grant{
		Region: t.Region, Base: uint64(t.Region.Addr), Live: true,
	})
	return nil
}

func (s *shadowCopy) grant(m *Machine, t *Tenant, buf mem.Buf) (*Grant, error) {
	g := &Grant{Region: buf, Base: uint64(buf.Addr), Live: true}
	t.grants = append(t.grants, g)
	return g, nil
}

func (s *shadowCopy) revoke(m *Machine, t *Tenant, g *Grant) {
	g.Live = false
	g.Epoch++
}

func (s *shadowCopy) descAddr(t *Tenant, p mem.Phys) uint64 { return uint64(p) }

func (s *shadowCopy) slotBuf(m *Machine, t *Tenant, slot int) mem.Buf {
	return mem.Buf{
		Addr: t.shadowArea.Addr + mem.Phys(slot*m.cfg.BufSize),
		Size: m.cfg.BufSize,
	}
}

func (s *shadowCopy) slotIOVA(m *Machine, t *Tenant, slot int) iommu.IOVA {
	return shadowWinBase + iommu.IOVA(uint64(t.ID)*capWinStride+uint64(slot*m.cfg.BufSize))
}

func (s *shadowCopy) deliver(m *Machine, t *Tenant, now uint64) {
	slot, ok := t.freeSlots.Pop()
	if !ok {
		t.Stats.NoBufDrops++
		return
	}
	n := min(len(m.payload), m.cfg.BufSize)
	res := m.U.DMAWrite(nicDev, s.slotIOVA(m, t, slot), m.payload[:n])
	if res.Fault != nil {
		t.Stats.DMAFaults++
		t.freeSlots.Post(slot)
		return
	}
	m.enqueue(t, dpJob{t: t, slot: slot, n: n}, now+res.Latency)
}

// complete is the trusted copy engine: validate the tenant-posted
// destination against the tenant's live grants, clamp with the §5.4
// copying hint, pay the memcpy, recycle the shadow slot.
func (s *shadowCopy) complete(m *Machine, q *dpQueue, j dpJob) {
	p := q.proc
	t := j.t
	p.SpanEnter("tenant.copyout")
	p.Charge(cycles.TagOther, consumeCycles)
	d, ok := popDesc(m, t, p.Now())
	if ok {
		if g := t.findGrant(d.Addr, d.Len, d.Epoch, false); g == nil {
			m.violation(t, d, p.Now(), "copy-out reject: destination outside live grant")
		} else {
			n := min(j.n, d.Len)
			slot := s.slotBuf(m, t, j.slot)
			if h := m.cfg.Hint(m.Mem, slot, n); h < n {
				n = h
			}
			p.ChargeSpan("memcpy", cycles.TagMemcpy, m.cfg.Costs.Memcpy(n))
			if err := m.Mem.Copy(mem.Phys(d.Addr), slot.Addr, n); err == nil {
				t.Stats.Frames++
				t.Stats.Bytes += uint64(n)
			}
			if !t.Hostile {
				p.Charge(cycles.TagOther, repostCycles)
				t.ring.Post(d)
			}
		}
	}
	t.freeSlots.Post(j.slot)
	p.SpanExit()
}
