package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllocReadWriteRoundTrip(t *testing.T) {
	m := New(1)
	addr, err := m.AllocPages(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("hello physical world")
	if err := m.Write(addr+100, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := m.Read(addr+100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestAccessSpansPages(t *testing.T) {
	m := New(1)
	addr, _ := m.AllocPages(0, 2)
	want := make([]byte, 1000)
	for i := range want {
		want[i] = byte(i)
	}
	// Straddle the page boundary.
	at := addr + Phys(PageSize-500)
	if err := m.Write(at, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1000)
	if err := m.Read(at, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("page-spanning access corrupted data")
	}
}

func TestAccessUnallocatedFails(t *testing.T) {
	m := New(1)
	b := make([]byte, 10)
	if err := m.Read(Phys(123456<<PageShift), b); err == nil {
		t.Error("read of unallocated memory should fail")
	}
	addr, _ := m.AllocPages(0, 1)
	// Write that runs off the end of the allocation must fail with no
	// partial effects.
	big := make([]byte, PageSize+10)
	if err := m.Write(addr, big); err == nil {
		t.Error("overrun write should fail")
	}
	probe := make([]byte, 4)
	if err := m.Read(addr, probe); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(probe, []byte{0, 0, 0, 0}) {
		t.Error("failed write had partial effects")
	}
}

func TestFreeAndReuse(t *testing.T) {
	m := New(1)
	a, _ := m.AllocPages(0, 1)
	if err := m.FreePages(a, 1); err != nil {
		t.Fatal(err)
	}
	if m.Allocated(a) {
		t.Error("freed page still allocated")
	}
	b, _ := m.AllocPages(0, 1)
	if a != b {
		t.Errorf("single-page alloc should reuse freed frame: %#x vs %#x", a, b)
	}
	if err := m.FreePages(b+4096, 1); err == nil {
		t.Error("double/invalid free should fail")
	}
	if err := m.FreePages(b+1, 1); err == nil {
		t.Error("unaligned free should fail")
	}
}

// TestAllocPagesRuns allocates runs of frames that start and end inside
// words of the allocation bitmap and straddle them, on both domains, and
// checks which frames are allocated, that freeing twice fails, and the
// in-use accounting.
func TestAllocPagesRuns(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130} {
		// Frame 0 is never allocated, so a pad of p frames starts the run
		// at frame p+1: inside word 0, at the end of word 0, on word 1's
		// first bit, and past it.
		for _, pad := range []int{0, 1, 62, 63, 64, 100} {
			for d := 0; d < 2; d++ {
				m := New(2)
				if pad > 0 {
					if _, err := m.AllocPages(d, pad); err != nil {
						t.Fatal(err)
					}
				}
				a, err := m.AllocPages(d, n)
				if err != nil {
					t.Fatal(err)
				}
				if got := a.PFN() % domainSpan; got != uint64(pad+1) {
					t.Fatalf("run of %d after %d frames starts at frame %d", n, pad, got)
				}
				check := func(state string, wantRun bool, inUse int) {
					t.Helper()
					for i := -1; i <= n; i++ {
						want := wantRun && i >= 0 && i < n || i < 0 && pad > 0
						if got := m.Allocated(a + Phys(i*PageSize)); got != want {
							t.Fatalf("%s: run of %d at frame %d, domain %d: frame %+d allocated = %v", state, n, pad+1, d, i, got)
						}
					}
					if got := m.InUseBytes(d); got != uint64(inUse*PageSize) {
						t.Fatalf("%s: InUseBytes(%d) = %d, want %d pages", state, d, got, inUse)
					}
					if got := m.InUseBytes(1 - d); got != 0 {
						t.Fatalf("%s: the other domain has %d bytes in use", state, got)
					}
				}
				check("allocated", true, pad+n)
				if err := m.FreePages(a, n); err != nil {
					t.Fatal(err)
				}
				check("freed", false, pad)
				if err := m.FreePages(a, n); err == nil {
					t.Fatalf("double free of a run of %d at frame %d succeeded", n, pad+1)
				}
				check("double-freed", false, pad)
			}
		}
	}
}

func TestNUMADomains(t *testing.T) {
	m := New(2)
	a, _ := m.AllocPages(0, 1)
	b, _ := m.AllocPages(1, 1)
	if m.DomainOf(a) != 0 || m.DomainOf(b) != 1 {
		t.Errorf("domains: %d %d", m.DomainOf(a), m.DomainOf(b))
	}
	if m.InUseBytes(0) != PageSize || m.InUseBytes(1) != PageSize {
		t.Error("in-use accounting wrong")
	}
	if _, err := m.AllocPages(2, 1); err == nil {
		t.Error("bad domain should fail")
	}
	if _, err := m.AllocPages(0, 0); err == nil {
		t.Error("zero pages should fail")
	}
}

func TestPhysHelpers(t *testing.T) {
	p := Phys(5<<PageShift + 123)
	if p.PFN() != 5 || p.Offset() != 123 || p.PageBase() != Phys(5<<PageShift) {
		t.Errorf("helpers wrong: %d %d %#x", p.PFN(), p.Offset(), uint64(p.PageBase()))
	}
	b := Buf{Addr: p, Size: 10}
	if b.End() != p+10 {
		t.Error("End wrong")
	}
}

func TestZeroLengthAccess(t *testing.T) {
	// Regression: a zero-length access at address zero used to compute
	// last = (0 + 0 - 1) >> PageShift, underflowing to a huge PFN. It must
	// be a successful no-op, even on unallocated addresses.
	m := New(1)
	if err := m.Read(0, nil); err != nil {
		t.Errorf("Read(0, nil) = %v, want nil", err)
	}
	if err := m.Write(0, nil); err != nil {
		t.Errorf("Write(0, nil) = %v, want nil", err)
	}
	if err := m.Read(0, []byte{}); err != nil {
		t.Errorf("Read(0, empty) = %v, want nil", err)
	}
	if err := m.Copy(0, 0, 0); err != nil {
		t.Errorf("Copy(0, 0, 0) = %v, want nil", err)
	}
	if err := m.Fill(Buf{}, 0xff); err != nil {
		t.Errorf("Fill(empty) = %v, want nil", err)
	}
	// Non-empty access at unallocated address zero must still fail.
	if err := m.Read(0, make([]byte, 1)); err == nil {
		t.Error("Read of unallocated page should fail")
	}
}

func TestRecycledPageReadsZero(t *testing.T) {
	// A freed-and-reallocated page must read as zeros no matter what was
	// written before the free (the dirty-line zeroing path).
	m := New(1)
	addr, err := m.AllocPages(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fill(Buf{Addr: addr, Size: PageSize}, 0xde); err != nil {
		t.Fatal(err)
	}
	if err := m.FreePages(addr, 1); err != nil {
		t.Fatal(err)
	}
	again, err := m.AllocPages(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if again != addr {
		t.Fatalf("expected LIFO recycling of %#x, got %#x", uint64(addr), uint64(again))
	}
	got := make([]byte, PageSize)
	for i := range got {
		got[i] = 0x55 // poison: Read must overwrite every byte
	}
	if err := m.Read(again, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("recycled page byte %d = %#x, want 0", i, b)
		}
	}
}

func TestNeverWrittenPageReadsZero(t *testing.T) {
	// Allocated pages whose frames were never materialized read as zeros,
	// including when copied into a materialized destination.
	m := New(1)
	src, err := m.AllocPages(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := m.AllocPages(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 100)
	for i := range got {
		got[i] = 0x55
	}
	if err := m.Read(src+20, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("fresh page byte %d = %#x, want 0", i, b)
		}
	}
	// Write then overwrite-by-copy from a never-written source.
	if err := m.Fill(Buf{Addr: dst, Size: PageSize}, 0xaa); err != nil {
		t.Fatal(err)
	}
	if err := m.Copy(dst, src, PageSize); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, PageSize)
	if err := m.Read(dst, out); err != nil {
		t.Fatal(err)
	}
	for i, b := range out {
		if b != 0 {
			t.Fatalf("copied-from-fresh byte %d = %#x, want 0", i, b)
		}
	}
}

func TestRandomReadWriteProperty(t *testing.T) {
	m := New(1)
	base, _ := m.AllocPages(0, 16)
	shadow := make([]byte, 16*PageSize)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		off := rng.Intn(16*PageSize - 200)
		n := 1 + rng.Intn(199)
		data := make([]byte, n)
		rng.Read(data)
		if err := m.Write(base+Phys(off), data); err != nil {
			t.Fatal(err)
		}
		copy(shadow[off:], data)
	}
	got := make([]byte, len(shadow))
	if err := m.Read(base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shadow) {
		t.Error("memory diverged from reference model")
	}
}

func TestKmallocCoLocatesOnPage(t *testing.T) {
	// The security-critical property: consecutive small allocations share
	// a page, so page-granularity IOMMU mapping exposes neighbours.
	m := New(1)
	k := NewKmalloc(m, nil)
	a, err := k.Alloc(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := k.Alloc(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !SamePage(a, b) {
		t.Error("consecutive kmallocs should share a page (slab co-location)")
	}
	if a.End() > b.Addr && b.End() > a.Addr {
		t.Error("allocations overlap")
	}
}

func TestKmallocClassRounding(t *testing.T) {
	m := New(1)
	k := NewKmalloc(m, nil)
	a, _ := k.Alloc(0, 100) // class 128
	c, _ := k.Alloc(0, 128) // same class
	if a.Addr.PFN() != c.Addr.PFN() {
		t.Error("same-class allocations should pack onto the same slab page")
	}
	if got := int(c.Addr - a.Addr); got != 128 {
		t.Errorf("object stride = %d, want 128", got)
	}
}

func TestKmallocLargeFallsBackToPages(t *testing.T) {
	m := New(1)
	k := NewKmalloc(m, nil)
	b, err := k.Alloc(0, 3*PageSize+5)
	if err != nil {
		t.Fatal(err)
	}
	if b.Addr.Offset() != 0 {
		t.Error("large alloc should be page aligned")
	}
	if err := k.Free(b); err != nil {
		t.Fatal(err)
	}
}

func TestKmallocFreeAndReuse(t *testing.T) {
	m := New(1)
	k := NewKmalloc(m, nil)
	a, _ := k.Alloc(0, 64)
	if err := k.Free(a); err != nil {
		t.Fatal(err)
	}
	b, _ := k.Alloc(0, 64)
	if a.Addr != b.Addr {
		t.Error("freed object should be reused first (use-after-free realism)")
	}
	if err := k.Free(b); err != nil {
		t.Fatal(err)
	}
	if err := k.Free(b); err == nil {
		t.Error("double free should fail")
	}
	if err := k.Free(Buf{Addr: 0xdead000, Size: 64}); err == nil {
		t.Error("free of unknown address should fail")
	}
}

func TestKmallocManyAllocationsDistinct(t *testing.T) {
	m := New(1)
	k := NewKmalloc(m, nil)
	seen := map[Phys]bool{}
	for i := 0; i < 1000; i++ {
		b, err := k.Alloc(0, 256)
		if err != nil {
			t.Fatal(err)
		}
		if seen[b.Addr] {
			t.Fatalf("duplicate address %#x", uint64(b.Addr))
		}
		seen[b.Addr] = true
	}
}

func TestKmallocZeroSizeFails(t *testing.T) {
	m := New(1)
	k := NewKmalloc(m, nil)
	if _, err := k.Alloc(0, 0); err == nil {
		t.Error("zero-size alloc should fail")
	}
}

func TestSamePageProperty(t *testing.T) {
	f := func(aOff, bOff uint16, aLen, bLen uint8) bool {
		a := Buf{Addr: Phys(1<<PageShift) + Phys(aOff), Size: int(aLen) + 1}
		b := Buf{Addr: Phys(1<<PageShift) + Phys(bOff), Size: int(bLen) + 1}
		got := SamePage(a, b)
		// Reference: enumerate pages.
		pages := map[uint64]bool{}
		for p := a.Addr.PFN(); p <= (a.End() - 1).PFN(); p++ {
			pages[p] = true
		}
		want := false
		for p := b.Addr.PFN(); p <= (b.End() - 1).PFN(); p++ {
			if pages[p] {
				want = true
			}
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
