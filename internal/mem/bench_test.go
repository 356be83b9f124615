package mem

import (
	"bytes"
	"testing"
)

// BenchmarkMemAccess4K measures the single-page access fast path (one
// write + one read of a full page), which every DMA burst lands on. Must
// be allocation-free.
func BenchmarkMemAccess4K(b *testing.B) {
	m := New(1)
	addr, err := m.AllocPages(0, 1)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, PageSize)
	b.SetBytes(2 * PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Write(addr, buf); err != nil {
			b.Fatal(err)
		}
		if err := m.Read(addr, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemCopy64K measures the in-simulation copy primitive behind
// the shadow-buffer data path (16 pages, page-chunked). The source holds
// distinct bytes, so its pages are materialized, not uniform.
func BenchmarkMemCopy64K(b *testing.B) {
	m := New(1)
	src, err := m.AllocPages(0, 16)
	if err != nil {
		b.Fatal(err)
	}
	dst, err := m.AllocPages(0, 16)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 16*PageSize)
	for i := range data {
		data[i] = byte(i) | 1
	}
	if err := m.Write(src, data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(16 * PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Copy(dst, src, 16*PageSize); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemFill64K measures the allocation-free fill path.
func BenchmarkMemFill64K(b *testing.B) {
	m := New(1)
	addr, err := m.AllocPages(0, 16)
	if err != nil {
		b.Fatal(err)
	}
	buf := Buf{Addr: addr, Size: 16 * PageSize}
	b.SetBytes(16 * PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Fill(buf, byte(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSentinelPage measures the isolation oracle of the
// multi-tenant datapath: New(1), 64 pages each filled with a sentinel
// byte, an audit that reads every page into one buffer and counts the
// bytes that differ, then Release. The pages are uniform, so the fills
// store no page and materialize no chunk.
func BenchmarkSentinelPage(b *testing.B) {
	const pages = 64
	page := make([]byte, PageSize)
	b.SetBytes(pages * PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New(1)
		addr, err := m.AllocPages(0, pages)
		if err != nil {
			b.Fatal(err)
		}
		for p := 0; p < pages; p++ {
			if err := m.Fill(Buf{Addr: addr + Phys(p*PageSize), Size: PageSize}, byte(0xA1+p*37)|1); err != nil {
				b.Fatal(err)
			}
		}
		for p := 0; p < pages; p++ {
			if err := m.Read(addr+Phys(p*PageSize), page); err != nil {
				b.Fatal(err)
			}
			if n := bytes.Count(page, []byte{byte(0xA1+p*37) | 1}); n != PageSize {
				b.Fatalf("page %d: %d sentinel bytes", p, n)
			}
		}
		m.Release()
	}
}

// BenchmarkMemoryLifecycle measures one machine's memory from New to
// Release: New(2), a full-page write to each of 256 pages, then Release.
// Each page is one non-zero line over zeros, so the writes fill 256 slots
// of one slot block and materialize no page chunk. Once the free list is
// warm the block comes from it, so the per-op allocation is bookkeeping
// only, not frame storage.
func BenchmarkMemoryLifecycle(b *testing.B) {
	page := make([]byte, PageSize)
	page[0] = 1
	b.SetBytes(256 * PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New(2)
		addr, err := m.AllocPages(0, 256)
		if err != nil {
			b.Fatal(err)
		}
		for p := 0; p < 256; p++ {
			if err := m.Write(addr+Phys(p*PageSize), page); err != nil {
				b.Fatal(err)
			}
		}
		m.Release()
	}
}

// BenchmarkMemAllocFree measures single-page allocate/free recycling (the
// kmalloc backing-page churn of the simulated workloads).
func BenchmarkMemAllocFree(b *testing.B) {
	m := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr, err := m.AllocPages(0, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.FreePages(addr, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSparseFirstWrite measures a machine whose writes are spread
// thin: New(1), a one-byte write to each of 64 pages 16 frames apart,
// then Release. Each write is the first to its frame and stores one line
// in a slot, so this is the cost of the allocation bitmap, the frame
// table and one slot block, with no page chunk materialized.
func BenchmarkSparseFirstWrite(b *testing.B) {
	const pages, stride = 64, 16
	one := []byte{1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New(1)
		addr, err := m.AllocPages(0, pages*stride)
		if err != nil {
			b.Fatal(err)
		}
		for p := 0; p < pages; p++ {
			if err := m.Write(addr+Phys(p*stride*PageSize), one); err != nil {
				b.Fatal(err)
			}
		}
		m.Release()
	}
}

// BenchmarkHeaderOnlyFrames measures the NIC's RX buffer shape: New(2),
// 256 frames, and in each a 1,500-byte frame at offsets 0 and 2048 (the
// two kmalloc-2048 buffers of a page) that is a two-byte length header
// over 1,498 zero bytes, then Release. Each frame stores two lines in a
// slot, so the 256 frames fill one slot block and materialize no page
// chunk.
func BenchmarkHeaderOnlyFrames(b *testing.B) {
	const frames = 256
	rx := make([]byte, 1500)
	rx[0], rx[1] = 0x05, 0xdc
	b.SetBytes(2 * frames * int64(len(rx)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New(2)
		addr, err := m.AllocPages(0, frames)
		if err != nil {
			b.Fatal(err)
		}
		for p := 0; p < frames; p++ {
			for _, off := range []int{0, 2048} {
				if err := m.Write(addr+Phys(p*PageSize+off), rx); err != nil {
					b.Fatal(err)
				}
			}
		}
		m.Release()
	}
}

// pageMapSink keeps BenchmarkPageMapDense's reads live.
var pageMapSink int32

// BenchmarkPageMapDense measures Get through the last-leaf cache over
// 4,096 consecutive pages: eight full leaves, each read 512 times in a
// row, as a queue's ring buffers or a slab's pages are.
func BenchmarkPageMapDense(b *testing.B) {
	const pages, base = 4096, 1<<35 - 1<<16
	var m PageMap[int32]
	for p := uint64(0); p < pages; p++ {
		m.Set(base+p, int32(p+1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum int32
	for i := 0; i < b.N; i++ {
		sum += m.Get(base + uint64(i)%pages)
	}
	pageMapSink = sum
}

// BenchmarkPageMapStride measures building a table shaped like the shadow
// pool's IOMMU page table at 64 cores: a fresh map, then 64 regions (one
// per owner core, 2^28 pages apart) of 256 pages each at a stride of 64,
// so each of the 2,048 leaves holds eight entries.
func BenchmarkPageMapStride(b *testing.B) {
	const regions, perRegion, stride = 64, 256, 64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var m PageMap[int32]
		for r := uint64(0); r < regions; r++ {
			base := 1<<35 | r<<28
			for k := uint64(0); k < perRegion; k++ {
				m.Set(base+k*stride, int32(k+1))
			}
		}
		if m.Len() != regions*perRegion {
			b.Fatalf("Len = %d", m.Len())
		}
	}
}
