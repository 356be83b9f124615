package iommu

// Message-signaled interrupts. A device raises an interrupt by DMA-writing
// a vector number to the interrupt doorbell window (0xFEExxxxx on x86).
// That makes interrupt delivery an ATTACK SURFACE exactly like any other
// DMA: a hostile device can spam doorbell writes at vectors it was never
// granted — an interrupt storm aimed at another device's handlers.
//
// VT-d closes it with interrupt remapping: when translation is active,
// doorbell writes are matched against per-device granted vectors and
// everything else is blocked. Translation-free designs (no-iommu,
// swiotlb's bounce buffering) pass the raw write through to the
// interrupt controller — the spurious vector is delivered.
//
// The model is accounting-only: MSI writes cost no simulated time and
// publish no gated metrics, so wiring them into the NIC's interrupt
// paths changes no benchmark artifact. internal/campaign's
// interrupt-storm payload reads the counters for ground truth.

// MSIBase is the doorbell window base address (x86 0xFEE00000).
const MSIBase IOVA = 0xFEE00000

// MSIResult reports the outcome of one doorbell write.
type MSIResult struct {
	Delivered bool   // reached the interrupt controller
	Vector    uint32 // vector carried by the write
	Granted   bool   // the OS had granted this device the vector
}

// MSIStats are the interrupt-remapping counters. Spurious counts
// deliveries of ungranted vectors — each one is a breach: only
// translation-free designs ever increment it.
type MSIStats struct {
	Writes    uint64
	Delivered uint64
	Blocked   uint64
	Spurious  uint64
}

// GrantMSI programs an interrupt-remapping table entry: dev may signal
// vector. The NIC grants one vector per queue at attach time. A doorbell
// write carries its vector in the data's low byte, so a vector above 255
// can never be signalled and its grant records nothing.
func (u *IOMMU) GrantMSI(dev DeviceID, vector uint32) {
	if vector <= 0xFF {
		u.record(dev).msi[vector>>6] |= 1 << (vector & 63)
	}
}

// MSIWrite models a device's doorbell write carrying data (vector in the
// low byte). With translation active the write passes interrupt
// remapping: ungranted vectors are blocked. Passthrough devices bypass
// remapping entirely — the raw write reaches the interrupt controller,
// granted or not.
func (u *IOMMU) MSIWrite(dev DeviceID, addr IOVA, data uint32) MSIResult {
	vector := data & 0xFF
	var rec device
	if d := u.lookup(dev); d != nil {
		rec = *d
	}
	granted := rec.msi[vector>>6]&(1<<(vector&63)) != 0
	res := MSIResult{Vector: vector, Granted: granted}
	u.msiStats.Writes++
	if rec.blocked {
		// Quarantined at the root port: nothing gets through, interrupts
		// included.
		u.msiStats.Blocked++
		return res
	}
	if rec.passthrough {
		res.Delivered = true
		u.msiStats.Delivered++
		if !granted {
			u.msiStats.Spurious++
		}
		return res
	}
	if !granted {
		u.msiStats.Blocked++
		return res
	}
	res.Delivered = true
	u.msiStats.Delivered++
	return res
}

// MSIStats snapshots the interrupt-remapping counters.
func (u *IOMMU) MSIStats() MSIStats { return u.msiStats }
