package mem_test

import (
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/mem"
)

// pageMapBases are the key neighbourhoods the simulator's PageMaps see:
// both NUMA domains' first PFNs (domains are 1<<22 frames apart), the
// top-down IOVA pages the Linux allocator hands out below 1<<35, shadow
// IOVA pages with address bit 47 (page bit 35) set, and the last page
// below the limit.
var pageMapBases = []uint64{
	1,
	1<<22 + 1,
	1<<35 - 1<<16,
	1<<35 | 1<<20,
	mem.PageMapPages - 1<<16,
}

// pageMapOutOfRange are pages no PageMap indexes: the first page past the
// limit, an IOVA at or beyond 2^48, and the top of the uint64 range.
var pageMapOutOfRange = []uint64{
	mem.PageMapPages,
	(1<<48 + 0x1000_0000) >> mem.PageShift,
	1<<52 | 5,
	^uint64(0),
}

// FuzzPageMap runs Set, Get, zero-value deletes and Len against a Go map.
// Each 5-byte op is: opcode, key neighbourhood, 16-bit offset, value. Runs
// of consecutive pages and pages at the shadow pool's stride of 64 fill
// leaves past the sparse limit, so values move from the sparse form into
// the full one mid-sequence, and deletes hit both forms. At the end every
// page ever touched, deleted ones included, must read as the model says.
func FuzzPageMap(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 7, 0, 1, 0, 1, 9, 1, 0, 0, 1, 0, 2, 4, 0, 0, 0})
	f.Add([]byte{0, 2, 0xff, 0xff, 3, 0, 3, 0, 0, 4, 1, 2, 0xff, 0xff, 0, 2, 9, 0, 0, 0})
	f.Add([]byte{0, 4, 0xff, 0xff, 1, 3, 0, 0, 0, 0, 3, 3, 0, 0, 0, 1, 4, 0xff, 0xff, 0})
	// A run of 40 pages: a sparse leaf fills and promotes mid-run; then a
	// run and single deletes from the full leaf, and gets.
	f.Add([]byte{
		4, 1, 0, 0, 39, // set pages 0..39 of 1<<22+1
		6, 1, 4, 0, 5, // delete 6 pages from 4
		1, 1, 30, 0, 0, // delete page 30
		2, 1, 5, 0, 0, // get a deleted page
		2, 1, 20, 0, 0,
	})
	// Stride 64 in one leaf from several offsets, 8 pages each. While the
	// leaf is sparse a single and a strided delete hit it and are read
	// back; more offsets fill it, and a strided delete hits the full leaf.
	f.Add([]byte{
		5, 3, 0, 0, 7, // pages 0, 64, ..., 448 of 1<<35|1<<20
		5, 3, 1, 0, 7, // 1, 65, ..., 449
		1, 3, 64, 0, 0, // delete page 64
		2, 3, 64, 0, 0, // and read it back
		6, 3, 1, 0, 0x81, // delete pages 1 and 65
		2, 3, 65, 0, 0,
		2, 3, 0x81, 0, 0, // page 129 is still there
		5, 3, 2, 0, 7,
		5, 3, 3, 0, 7,
		5, 3, 4, 0, 7,
		5, 3, 5, 0, 7, // the leaf is full now
		6, 3, 2, 0, 0x87, // delete 2, 66, ..., 450
		2, 3, 66, 0, 0,
		2, 3, 0x83, 0, 0,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		var m mem.PageMap[int32]
		model := map[uint64]int32{}
		touched := map[uint64]bool{}
		set := func(page uint64, v int32) {
			if page >= mem.PageMapPages {
				return
			}
			m.Set(page, v)
			touched[page] = true
			if v == 0 {
				delete(model, page)
			} else {
				model[page] = v
			}
		}
		for i := 0; i+4 < len(data); i += 5 {
			op, class := data[i]%7, int(data[i+1])
			off := uint64(binary.LittleEndian.Uint16(data[i+2:]))
			b := data[i+4]
			v := int32(b) - 128
			page := pageMapBases[class%len(pageMapBases)] + off
			switch op {
			case 0: // set (v may be zero: a delete)
				set(page, v)
			case 1: // delete
				set(page, 0)
			case 2: // get
				if got := m.Get(page); got != model[page] {
					t.Fatalf("Get(%#x) = %d, want %d", page, got, model[page])
				}
			case 3: // get out of range
				oor := pageMapOutOfRange[class%len(pageMapOutOfRange)] + off
				if oor < mem.PageMapPages {
					oor = ^uint64(0) - off // wrapped: stay out of range
				}
				if got := m.Get(oor); got != 0 {
					t.Fatalf("out-of-range Get(%#x) = %d", oor, got)
				}
			case 4: // set b%80+1 consecutive pages
				for k := range uint64(b%80 + 1) {
					set(page+k, int32(b)<<8|int32(k+1))
				}
			case 5: // set b%16+1 pages at stride 64
				for k := range uint64(b%16 + 1) {
					set(page+64*k, int32(b)<<8|int32(k+1))
				}
			case 6: // delete b%80+1 consecutive pages, or b%16+1 at stride 64
				stride, n := uint64(1), uint64(b%80+1)
				if b >= 128 {
					stride, n = 64, uint64(b%16+1)
				}
				for k := range n {
					set(page+stride*k, 0)
				}
			}
			if m.Len() != len(model) {
				t.Fatalf("Len = %d, model holds %d", m.Len(), len(model))
			}
		}
		for page := range touched {
			if got := m.Get(page); got != model[page] {
				t.Fatalf("final Get(%#x) = %d, want %d", page, got, model[page])
			}
		}
	})
}

// pte16 has the size of an IOMMU page-table entry.
type pte16 struct {
	pfn   uint64
	valid bool
}

// TestPageMapSparseLeafFootprint sets pages at the shadow pool's stride of
// 64 in one leaf: eight cost under 1 KiB, where a full leaf of 16-byte
// entries is 8 KiB. Filling the leaf past the sparse limit promotes it, and
// every value reads back, from both forms, without Get allocating.
func TestPageMapSparseLeafFootprint(t *testing.T) {
	var m mem.PageMap[pte16]
	const leaf = 1<<35 | 1<<20 // a fresh leaf; its neighbour above builds the path
	m.Set(leaf+512, pte16{pfn: 1, valid: true})
	want := make(map[uint64]pte16, 512)
	want[leaf+512] = pte16{pfn: 1, valid: true}
	check := func(form string) {
		t.Helper()
		if m.Len() != len(want) {
			t.Fatalf("%s: Len = %d, want %d", form, m.Len(), len(want))
		}
		for page, v := range want {
			if got := m.Get(page); got != v {
				t.Fatalf("%s: Get(%#x) = %+v, want %+v", form, page, got, v)
			}
		}
		for page := uint64(leaf); page < leaf+512; page++ {
			if n := testing.AllocsPerRun(1, func() { m.Get(page) }); n != 0 {
				t.Fatalf("%s: Get(%#x) allocated %.0f times", form, page, n)
			}
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := uint64(0); k < 8; k++ {
		m.Set(leaf+64*k, pte16{pfn: leaf + 64*k, valid: true})
	}
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b >= 1024 {
		t.Fatalf("8 entries at stride 64 allocated %d bytes, want under 1024", b)
	}
	for k := uint64(0); k < 8; k++ {
		want[leaf+64*k] = pte16{pfn: leaf + 64*k, valid: true}
	}
	check("sparse")

	// Fill the leaf to the sparse limit from other offsets, allocating
	// nothing more; the entry past it allocates the full array.
	for page, n := uint64(leaf+1), 8; n <= mem.PageLeafSparse; page++ {
		if page%64 == 0 {
			continue
		}
		v := pte16{pfn: page, valid: true}
		runtime.ReadMemStats(&before)
		m.Set(page, v)
		runtime.ReadMemStats(&after)
		want[page] = v
		n++
		b := after.TotalAlloc - before.TotalAlloc
		switch {
		case n <= mem.PageLeafSparse && b != 0:
			t.Fatalf("entry %d of a sparse leaf allocated %d bytes", n, b)
		case n > mem.PageLeafSparse && b < 512*16:
			t.Fatalf("entry %d allocated %d bytes, not a full leaf", n, b)
		}
	}
	check("full")
}

func TestPageMapZeroValueAndBounds(t *testing.T) {
	var m mem.PageMap[*int]
	if m.Get(42) != nil || m.Len() != 0 {
		t.Fatal("zero PageMap not empty")
	}
	if n := testing.AllocsPerRun(10, func() { m.Set(1<<30, nil) }); n != 0 {
		t.Fatalf("deleting from an absent path allocated %.0f times", n)
	}
	x := 7
	m.Set(mem.PageMapPages-1, &x)
	if m.Get(mem.PageMapPages-1) != &x || m.Len() != 1 {
		t.Fatal("top page did not round-trip")
	}
	// The top page's leaf is cached; a page whose leaf key would alias it
	// in a narrower table must still miss.
	for _, page := range pageMapOutOfRange {
		if m.Get(page) != nil {
			t.Fatalf("Get(%#x) beyond the limit returned a value", page)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Set beyond the limit did not panic")
		}
	}()
	m.Set(mem.PageMapPages, &x)
}
