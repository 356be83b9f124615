package iommu

import (
	"testing"

	"repro/internal/cycles"
	"repro/internal/mem"
	"repro/internal/sim"
)

func msiTestIOMMU() *IOMMU {
	eng := sim.NewEngine()
	return New(eng, mem.New(1), cycles.Default())
}

func TestMSIRemapFiltersUngrantedVectors(t *testing.T) {
	u := msiTestIOMMU()
	const dev DeviceID = 1
	u.GrantMSI(dev, 33)

	if res := u.MSIWrite(dev, MSIBase, 33); !res.Delivered || !res.Granted {
		t.Errorf("granted vector not delivered: %+v", res)
	}
	if res := u.MSIWrite(dev, MSIBase, 0xE0); res.Delivered {
		t.Errorf("ungranted vector delivered through remapping: %+v", res)
	}
	st := u.MSIStats()
	if st.Writes != 2 || st.Delivered != 1 || st.Blocked != 1 || st.Spurious != 0 {
		t.Errorf("stats = %+v, want 2 writes / 1 delivered / 1 blocked / 0 spurious", st)
	}
}

func TestMSIPassthroughDeliversRawDoorbellWrites(t *testing.T) {
	u := msiTestIOMMU()
	const dev DeviceID = 1
	u.SetPassthrough(dev, true)

	res := u.MSIWrite(dev, MSIBase, 0xE0)
	if !res.Delivered || res.Granted {
		t.Errorf("passthrough doorbell write: %+v, want delivered+ungranted", res)
	}
	if st := u.MSIStats(); st.Spurious != 1 {
		t.Errorf("spurious = %d, want 1 (the breach the storm payload measures)", st.Spurious)
	}
}

func TestMSIQuarantineBlocksInterrupts(t *testing.T) {
	u := msiTestIOMMU()
	const dev DeviceID = 1
	u.GrantMSI(dev, 33)
	u.Block(dev)

	if res := u.MSIWrite(dev, MSIBase, 33); res.Delivered {
		t.Errorf("quarantined device's interrupt delivered: %+v", res)
	}
	if st := u.MSIStats(); st.Blocked != 1 {
		t.Errorf("blocked = %d, want 1", st.Blocked)
	}
}

func TestMSIVectorIsLowByte(t *testing.T) {
	u := msiTestIOMMU()
	const dev DeviceID = 1
	u.GrantMSI(dev, 33)
	if res := u.MSIWrite(dev, MSIBase, 0xFF00+33); !res.Delivered || res.Vector != 33 {
		t.Errorf("high data bits changed the vector: %+v", res)
	}
	// A grant above 255 names no vector a doorbell write can carry.
	u.GrantMSI(dev, 0x100+34)
	if res := u.MSIWrite(dev, MSIBase, 34); res.Delivered || res.Granted {
		t.Errorf("grant of vector 0x122 let vector 34 through: %+v", res)
	}
}
