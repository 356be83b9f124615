package mem_test

import (
	"encoding/binary"
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
// Each 5-byte op is: opcode, key neighbourhood, 16-bit offset, value.
func FuzzPageMap(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 7, 0, 1, 0, 1, 9, 1, 0, 0, 1, 0, 2, 4, 0, 0, 0})
	f.Add([]byte{0, 2, 0xff, 0xff, 3, 0, 3, 0, 0, 4, 1, 2, 0xff, 0xff, 0, 2, 9, 0, 0, 0})
	f.Add([]byte{0, 4, 0xff, 0xff, 1, 3, 0, 0, 0, 0, 3, 3, 0, 0, 0, 1, 4, 0xff, 0xff, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		var m mem.PageMap[int32]
		model := map[uint64]int32{}
		for i := 0; i+4 < len(data); i += 5 {
			op, class := data[i]%4, int(data[i+1])
			off := uint64(binary.LittleEndian.Uint16(data[i+2:]))
			v := int32(data[i+4]) - 128
			page := pageMapBases[class%len(pageMapBases)] + off
			switch op {
			case 0: // set (v may be zero: a delete)
				m.Set(page, v)
				if v == 0 {
					delete(model, page)
				} else {
					model[page] = v
				}
			case 1: // delete
				m.Set(page, 0)
				delete(model, page)
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
			}
			if m.Len() != len(model) {
				t.Fatalf("Len = %d, model holds %d", m.Len(), len(model))
			}
		}
		for page, v := range model {
			if got := m.Get(page); got != v {
				t.Fatalf("final Get(%#x) = %d, want %d", page, got, v)
			}
		}
	})
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
