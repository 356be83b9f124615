package dmaapi

import (
	"fmt"

	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/sim"
)

// NoIOMMU is the unprotected baseline: the IOMMU is disabled (passthrough)
// and the device addresses physical memory directly. It is the performance
// upper bound and is "defenseless against DMA attacks" (paper §6).
type NoIOMMU struct {
	env      *Env
	coherent int // outstanding coherent allocations
	stats    Stats
}

// NewNoIOMMU creates the passthrough mapper and puts the device in
// passthrough mode.
func NewNoIOMMU(env *Env) *NoIOMMU {
	env.IOMMU.SetPassthrough(env.Dev, true)
	return &NoIOMMU{env: env}
}

// Map implements Mapper: the IOVA is the physical address.
func (n *NoIOMMU) Map(p *sim.Proc, buf mem.Buf, dir Dir) (iommu.IOVA, error) {
	if buf.Size <= 0 {
		return 0, fmt.Errorf("noiommu: map of %d bytes", buf.Size)
	}
	n.stats.Maps++
	n.stats.BytesMapped += uint64(buf.Size)
	return iommu.IOVA(buf.Addr), nil
}

// Unmap implements Mapper (a no-op beyond accounting).
func (n *NoIOMMU) Unmap(p *sim.Proc, addr iommu.IOVA, size int, dir Dir) error {
	n.stats.Unmaps++
	return nil
}

// MapSG implements Mapper.
func (n *NoIOMMU) MapSG(p *sim.Proc, bufs []mem.Buf, dir Dir) ([]iommu.IOVA, error) {
	return mapSGLoop(n, p, bufs, dir)
}

// UnmapSG implements Mapper.
func (n *NoIOMMU) UnmapSG(p *sim.Proc, addrs []iommu.IOVA, sizes []int, dir Dir) error {
	return unmapSGLoop(n, p, addrs, sizes, dir)
}

// AllocCoherent implements Mapper.
func (n *NoIOMMU) AllocCoherent(p *sim.Proc, size int) (iommu.IOVA, mem.Buf, error) {
	buf, err := allocCoherentPages(n.env, p, size)
	if err != nil {
		return 0, mem.Buf{}, err
	}
	n.stats.CoherentAllocs++
	n.coherent++
	return iommu.IOVA(buf.Addr), buf, nil
}

// FreeCoherent implements Mapper.
func (n *NoIOMMU) FreeCoherent(p *sim.Proc, addr iommu.IOVA, buf mem.Buf) error {
	n.coherent--
	return freeCoherentPages(n.env, buf)
}

// Quiesce implements Mapper.
func (n *NoIOMMU) Quiesce(p *sim.Proc) {}

// Stats implements Mapper.
func (n *NoIOMMU) Stats() Stats { return n.stats }

// Accounting implements Mapper. Passthrough holds no per-mapping state;
// only coherent allocations are tracked.
func (n *NoIOMMU) Accounting() Accounting {
	return Accounting{LiveCoherent: n.coherent}
}

// SyncForCPU implements Mapper (cache maintenance only; zero copy).
func (n *NoIOMMU) SyncForCPU(p *sim.Proc, addr iommu.IOVA, size int, dir Dir) error {
	syncMaint(n.env, p)
	return nil
}

// SyncForDevice implements Mapper (cache maintenance only; zero copy).
func (n *NoIOMMU) SyncForDevice(p *sim.Proc, addr iommu.IOVA, size int, dir Dir) error {
	syncMaint(n.env, p)
	return nil
}
