package cycles

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultCalibrationMatchesPaperMicrocosts(t *testing.T) {
	c := Default()

	// Paper Fig 5a: copying a 1500 B ethernet packet costs 0.11us.
	if got := Micros(c.Memcpy(1500)); math.Abs(got-0.11) > 0.02 {
		t.Errorf("memcpy(1500B) = %.3fus, want ~0.11us", got)
	}
	// Paper Fig 5b: copying a 64 KiB TSO buffer costs 4.65us.
	if got := Micros(c.Memcpy(64 * 1024)); math.Abs(got-4.65) > 0.3 {
		t.Errorf("memcpy(64KiB) = %.3fus, want ~4.65us", got)
	}
	// Paper Fig 5a: IOTLB invalidation costs 0.61us single-core.
	if got := Micros(c.IOTLBInvalidateHW); math.Abs(got-0.61) > 0.02 {
		t.Errorf("IOTLB invalidation = %.3fus, want ~0.61us", got)
	}
	// Paper Fig 5a: page table management costs 0.17us per packet.
	if got := Micros(c.PTMap + c.PTUnmap); math.Abs(got-0.17) > 0.02 {
		t.Errorf("page table mgmt = %.3fus, want ~0.17us", got)
	}
	// Paper Fig 5a: shadow buffer management costs 0.02us per packet.
	if got := Micros(c.ShadowAcquire + c.ShadowFind + c.ShadowRelease); math.Abs(got-0.02) > 0.005 {
		t.Errorf("shadow mgmt = %.3fus, want ~0.02us", got)
	}
}

func TestCopyIs5xFasterThanInvalidation(t *testing.T) {
	// The paper's headline microbenchmark: "copying a 1500 B ethernet
	// packet is 5.5x faster than invalidating the IOTLB".
	c := Default()
	ratio := float64(c.IOTLBInvalidateHW) / float64(c.Memcpy(1500))
	if ratio < 4.5 || ratio > 6.5 {
		t.Errorf("invalidation/memcpy(1500B) ratio = %.2f, want ~5.5", ratio)
	}
}

func TestMemcpyMonotonic(t *testing.T) {
	c := Default()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return c.Memcpy(x) <= c.Memcpy(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPollutionOnlyAboveL1(t *testing.T) {
	c := Default()
	if c.Pollution(c.L1Bytes) != 0 {
		t.Errorf("pollution at L1 size should be 0")
	}
	if c.Pollution(c.L1Bytes-1) != 0 {
		t.Errorf("pollution below L1 size should be 0")
	}
	if c.Pollution(64*1024) == 0 {
		t.Errorf("64KiB copy should pollute")
	}
	us := Micros(c.Pollution(64 * 1024))
	if us < 1.0 || us > 3.5 {
		t.Errorf("pollution(64KiB) = %.2fus, want ~2us (paper Fig 5b)", us)
	}
}

func TestWireCycles(t *testing.T) {
	c := Default()
	// A 1500 B frame at 40 Gb/s occupies (1500+24)*8/40e9 s = 304.8ns
	// = ~731 cycles at 2.4 GHz.
	got := c.WireCycles(1500)
	if got < 700 || got > 760 {
		t.Errorf("WireCycles(1500) = %d, want ~731", got)
	}
	// Line-rate packet rate should be ~3.28 Mpps.
	pps := PerSec(1, got)
	if pps < 3.0e6 || pps > 3.5e6 {
		t.Errorf("line rate = %.2f Mpps, want ~3.28", pps/1e6)
	}
}

func TestTimeConversions(t *testing.T) {
	if got := Micros(2400); got != 1.0 {
		t.Errorf("Micros(2400) = %v, want 1", got)
	}
	if got := FromMicros(1.0); got != 2400 {
		t.Errorf("FromMicros(1) = %v, want 2400", got)
	}
	if got := FromMillis(10); got != 24_000_000 {
		t.Errorf("FromMillis(10) = %v", got)
	}
	if got := Millis(24_000_000); got != 10 {
		t.Errorf("Millis = %v", got)
	}
	f := func(us uint32) bool {
		c := FromMicros(float64(us))
		return math.Abs(Micros(c)-float64(us)) < 0.001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGbps(t *testing.T) {
	// 5 GB over one second of cycles = 40 Gb/s.
	if got := Gbps(5_000_000_000, Hz); math.Abs(got-40) > 0.01 {
		t.Errorf("Gbps = %v, want 40", got)
	}
	if Gbps(100, 0) != 0 {
		t.Error("zero window should give 0")
	}
	if PerSec(100, 0) != 0 {
		t.Error("zero window should give 0")
	}
}

func TestRemoteMemcpyFactor(t *testing.T) {
	c := Default()
	local := c.Memcpy(4096)
	remote := c.MemcpyRemote(4096)
	if remote <= local {
		t.Errorf("remote copy (%d) should cost more than local (%d)", remote, local)
	}
	want := local * c.NUMARemoteFactorPct / 100
	if remote != want {
		t.Errorf("remote = %d, want %d", remote, want)
	}
}

func TestCopyUserZeroAndNegative(t *testing.T) {
	c := Default()
	if c.CopyUser(0) != 0 || c.CopyUser(-5) != 0 {
		t.Error("CopyUser of non-positive length should be free")
	}
	if c.Memcpy(0) != 0 || c.Memcpy(-1) != 0 {
		t.Error("Memcpy of non-positive length should be free")
	}
}
