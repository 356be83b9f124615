package mem_test

import (
	"bytes"
	"testing"

	"repro/internal/dmafuzz"
	"repro/internal/mem"
)

// FuzzAccess drives random alloc/free/read/write/copy/fill sequences
// through the simulated physical memory and checks every byte against a
// plain []byte model: writes round-trip, never-written pages read as
// zeros, accesses to unallocated frames fail without partial effects, and
// freeing everything returns the in-use accounting to baseline. Each
// input releases its memory, so later inputs run on recycled chunks. The
// regions live at once (up to 64 pages) cross the boundaries of the
// 16-frame chunks, so accesses and copies span chunks; with 256-frame
// chunks they never left chunk 0. The writes include the shapes a sparse
// frame must get right: the NIC's header over a zero tail, zeros over
// bytes written before, and fills with zero and non-zero bytes, so
// frames move between slot lines and pages mid-sequence. Ops 10-14 reach
// uniform frames: non-zero fills over whole lines or pages (from four
// bytes, so fills meet both the same byte and another one), a few bytes
// written into the middle of a line, zeros over whole lines or part of
// one, partial fills at line-shifting offsets, and copies of whole lines
// to destinations shifted within a line.
func FuzzAccess(f *testing.F) {
	f.Add(dmafuzz.Generate(1, 64).Encode())
	f.Add(dmafuzz.Generate(3, 128).Encode())
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 0, 0})
	// Headers over zero tails in four lines of one frame, zeros over part
	// of them and a whole line of them, then checks.
	f.Add([]byte{
		0, 0, 3, 0, // alloc 4 pages: region 0
		6, 0, 0, 5, // header at 5, zero tail
		6, 0, 0, 200, // header at 200
		2, 0, 1, 90, // 91 bytes at 64
		7, 0, 0, 16, // zeros over 0..128
		3, 0, 0, 255, // read 0..256
		6, 0, 0, 70, // header at 70
		7, 0, 0, 9, // zeros over 0..73
		3, 0, 0, 255,
	})
	// Header-only frames copied at offsets that shift their lines, then a
	// non-zero fill wide enough to promote their chunk, and zero fills.
	f.Add([]byte{
		0, 0, 3, 0, // region 0: frames 1..4
		0, 0, 0, 0, // region 1: frame 5
		6, 0, 0, 33, // header at 33 of frame 1
		6, 0, 64, 2, // header at 4098 of frame 2
		8, 0, 1, 3, // fill 28 bytes of 3 at 64
		9, 0, 1, 40, // copy 641 bytes from region 0 to 89 of region 1
		3, 1, 0, 255,
		8, 0, 128, 255, // fill 2296 bytes of 255 at 8192: five lines and more
		3, 0, 0, 255,
		8, 0, 1, 0, // fill 1 zero byte at 64
		8, 0, 129, 200, // fill 1801 zeros at 8256
		3, 0, 128, 255,
	})
	// Uniform frames through every change of form: whole-line fills of
	// one byte, a byte written into one (to a slot), a partial fill
	// that goes to a slot and a whole-line fill over it (uniform again),
	// a shifted copy out of one, a freed uniform frame reallocated, a
	// partial fill of another byte (to a slot), whole-line zeroing (mask
	// bits only), and zeros over part of a line, which promotes chunk 0.
	f.Add([]byte{
		0, 0, 3, 0, // region 0: frames 1..4
		0, 0, 0, 0, // region 1: frame 5
		10, 0, 64, 4, // three lines of 0xa0 at 4096 (frame 2)
		10, 0, 64, 6, // four lines of 0xa0 there: still uniform
		11, 0, 64, 8, // one byte at 4105: frame 2 moves to a slot
		3, 0, 64, 255,
		13, 1, 0, 70, // 211 bytes of 0xa1 at 9 of frame 5: a slot
		10, 1, 0, 8, // five lines of 0xa0 over them: uniform again
		3, 1, 0, 255,
		14, 1, 0, 9, // its first two lines to 802 of region 0 (frame 1)
		10, 1, 0, 1, // a page of 0xa0 over frame 5: the same byte
		12, 1, 0, 3, // zeros over its first two lines
		1, 1, 0, 0, // free region 1 (frame 5)
		0, 0, 0, 0, // reallocate it: the uniform frame must read as zeros
		3, 1, 0, 255,
		10, 1, 0, 2, // two lines of 0xa0 at 0 of frame 5
		13, 1, 0, 69, // 208 bytes of 0xa1 at 8: another byte, to a slot
		3, 1, 0, 255,
		10, 0, 128, 1, // a page of 0xa0 (frame 3)
		12, 0, 128, 3, // zeros over its first two lines: mask bits only
		12, 0, 130, 10, // 3 zeros at 8331, part of line 2: promotes chunk 0
		3, 0, 0, 255,
		3, 0, 128, 255,
	})
	// A five-line write promotes a chunk holding uniform frames: pages
	// of 0xa3 and 0xa1, seven lines of 0xa0, a same-byte partial fill
	// that keeps a frame uniform, and a shifted copy out of one into a
	// slot, all read back from their pages.
	f.Add([]byte{
		0, 0, 3, 0, // region 0: frames 1..4
		0, 0, 0, 0, // region 1: frame 5
		10, 0, 0, 193, // a page of 0xa3 (frame 1)
		10, 0, 64, 12, // seven lines of 0xa0 at 4096 (frame 2)
		10, 1, 0, 65, // a page of 0xa1 (frame 5)
		13, 1, 0, 126, // 379 bytes of 0xa1 at 3 of frame 5: still uniform
		14, 1, 0, 98, // 192 bytes of it to 8723 of region 0 (frame 3)
		3, 0, 128, 255,
		2, 0, 192, 255, // 256 bytes at 12288: four lines of frame 4
		2, 0, 196, 255, // 256 more at 12544: a fifth line promotes chunk 0
		3, 0, 0, 255,
		3, 0, 64, 255,
		3, 1, 0, 255,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		m := mem.New(2)
		baseline := []uint64{m.InUseBytes(0), m.InUseBytes(1)}

		type region struct {
			base  mem.Phys
			pages int
			model []byte
		}
		var regions []region
		pick := func(b byte) *region {
			if len(regions) == 0 {
				return nil
			}
			return &regions[int(b)%len(regions)]
		}
		fill := func(r *region, off, n int, v byte) {
			if err := m.Fill(mem.Buf{Addr: r.base + mem.Phys(off), Size: n}, v); err != nil {
				t.Fatalf("fill: %v", err)
			}
			for j := off; j < off+n; j++ {
				r.model[j] = v
			}
		}

		for i := 0; i+3 < len(data); i += 4 {
			op, a, b, c := data[i]%15, data[i+1], data[i+2], data[i+3]
			switch op {
			case 0: // alloc 1..4 pages on domain a%2
				if len(regions) >= 16 {
					continue
				}
				pages := int(b)%4 + 1
				p, err := m.AllocPages(int(a)%2, pages)
				if err != nil {
					t.Fatalf("alloc %d pages: %v", pages, err)
				}
				regions = append(regions, region{base: p, pages: pages, model: make([]byte, pages*mem.PageSize)})
			case 1: // free a region
				if r := pick(a); r != nil {
					if err := m.FreePages(r.base, r.pages); err != nil {
						t.Fatalf("free: %v", err)
					}
					idx := int(a) % len(regions)
					regions = append(regions[:idx], regions[idx+1:]...)
				}
			case 2: // write a span
				r := pick(a)
				if r == nil {
					continue
				}
				off := int(b) * len(r.model) / 256
				n := int(c)%256 + 1
				if off+n > len(r.model) {
					n = len(r.model) - off
				}
				if n <= 0 {
					continue
				}
				span := make([]byte, n)
				for j := range span {
					span[j] = c ^ byte(j)
				}
				if err := m.Write(r.base+mem.Phys(off), span); err != nil {
					t.Fatalf("write: %v", err)
				}
				copy(r.model[off:off+n], span)
			case 3: // read a span and compare to the model
				r := pick(a)
				if r == nil {
					continue
				}
				off := int(b) * len(r.model) / 256
				n := int(c)%512 + 1
				if off+n > len(r.model) {
					n = len(r.model) - off
				}
				if n <= 0 {
					continue
				}
				got := make([]byte, n)
				if err := m.Read(r.base+mem.Phys(off), got); err != nil {
					t.Fatalf("read: %v", err)
				}
				if !bytes.Equal(got, r.model[off:off+n]) {
					t.Fatalf("read mismatch at region off %d len %d", off, n)
				}
			case 4: // copy between two regions (non-overlapping by construction)
				src, dst := pick(a), pick(b)
				if src == nil || dst == nil || src.base == dst.base {
					continue
				}
				n := int(c)%256 + 1
				if n > len(src.model) {
					n = len(src.model)
				}
				if n > len(dst.model) {
					n = len(dst.model)
				}
				if err := m.Copy(dst.base, src.base, n); err != nil {
					t.Fatalf("copy: %v", err)
				}
				copy(dst.model[:n], src.model[:n])
			case 5: // access far outside any allocation must fail cleanly
				bogus := mem.Phys(1) << 40
				if err := m.Write(bogus, []byte{1}); err == nil {
					t.Fatal("write to unallocated frame succeeded")
				}
				if err := m.Read(bogus, make([]byte, 8)); err == nil {
					t.Fatal("read of unallocated frame succeeded")
				}
			case 6: // an RX frame: a 1-2 byte header, then up to 1,498 zeros
				r := pick(a)
				if r == nil {
					continue
				}
				off := (int(b)*len(r.model)/256 + int(c)) % len(r.model)
				hdr := 1 + int(c)&1
				n := min(hdr+int(c)*6, hdr+1498, len(r.model)-off)
				span := make([]byte, n)
				span[0] = c | 1
				if n > 1 && hdr == 2 {
					span[1] = b | 1
				}
				if err := m.Write(r.base+mem.Phys(off), span); err != nil {
					t.Fatalf("header write: %v", err)
				}
				copy(r.model[off:off+n], span)
			case 7: // zeros over earlier bytes: part of a line, or whole lines
				r := pick(a)
				if r == nil {
					continue
				}
				off := int(b) * len(r.model) / 256
				n := min(int(c)*8+1, len(r.model)-off)
				if err := m.Write(r.base+mem.Phys(off), make([]byte, n)); err != nil {
					t.Fatalf("zero write: %v", err)
				}
				clear(r.model[off : off+n])
			case 8: // Fill with zero (c even) or with c (c odd)
				r := pick(a)
				if r == nil {
					continue
				}
				off := int(b) * len(r.model) / 256
				n := min(int(c)*9+1, len(r.model)-off)
				v := c * (c & 1)
				if err := m.Fill(mem.Buf{Addr: r.base + mem.Phys(off), Size: n}, v); err != nil {
					t.Fatalf("fill: %v", err)
				}
				for j := off; j < off+n; j++ {
					r.model[j] = v
				}
			case 9: // copy at offsets that shift lines, within a region too
				src, dst := pick(a), pick(b)
				if src == nil || dst == nil {
					continue
				}
				so, do := int(a)*97%len(src.model), int(b)*89%len(dst.model)
				n := min(int(c)*16+1, len(src.model)-so, len(dst.model)-do)
				if src.base == dst.base && so < do+n && do < so+n {
					continue // Copy's ranges must not overlap
				}
				if err := m.Copy(dst.base+mem.Phys(do), src.base+mem.Phys(so), n); err != nil {
					t.Fatalf("copy: %v", err)
				}
				copy(dst.model[do:do+n], src.model[so:so+n])
			case 10: // one of four bytes over whole lines (c even) or pages (c odd)
				r := pick(a)
				if r == nil {
					continue
				}
				off := int(b) * len(r.model) / 256 &^ 63
				n := (int(c>>1)%32 + 1) * 64
				if c&1 == 1 {
					off &^= mem.PageSize - 1
					n = (int(c>>1)%2 + 1) * mem.PageSize
				}
				n = min(n, len(r.model)-off)
				fill(r, off, n, 0xa0|c>>6)
			case 11: // a few bytes into the middle of a line
				r := pick(a)
				if r == nil {
					continue
				}
				off := int(b)*len(r.model)/256&^63 + 1 + int(c)%48
				span := make([]byte, min(1+int(c)%8, len(r.model)-off))
				for j := range span {
					span[j] = c ^ byte(j) | 1
				}
				if err := m.Write(r.base+mem.Phys(off), span); err != nil {
					t.Fatalf("line write: %v", err)
				}
				copy(r.model[off:], span)
			case 12: // zeros over whole lines (c odd) or part of one line
				r := pick(a)
				if r == nil {
					continue
				}
				off := int(b) * len(r.model) / 256 &^ 63
				if c&1 == 1 {
					fill(r, off, min((int(c>>1)%16+1)*64, len(r.model)-off), 0)
					continue
				}
				off += 1 + int(c)%31
				n := 1 + int(c>>2)%32
				if c&2 != 0 {
					fill(r, off, n, 0)
					continue
				}
				if err := m.Write(r.base+mem.Phys(off), make([]byte, n)); err != nil {
					t.Fatalf("zero write: %v", err)
				}
				clear(r.model[off : off+n])
			case 13: // one of four bytes from a line-shifting offset
				r := pick(a)
				if r == nil {
					continue
				}
				off := int(b)*len(r.model)/256&^63 + 1 + int(c)%62
				fill(r, off, min(1+int(c)*3, len(r.model)-off), 0xa0|c>>6)
			case 14: // whole lines copied to a destination shifted within a line
				src, dst := pick(a), pick(b)
				if src == nil || dst == nil {
					continue
				}
				so := int(b) * len(src.model) / 256 &^ 63
				do := (int(c)*89 + int(a)) % len(dst.model)
				n := min((int(c)%8+1)*64, len(src.model)-so, len(dst.model)-do)
				if src.base == dst.base && so < do+n && do < so+n {
					continue
				}
				if err := m.Copy(dst.base+mem.Phys(do), src.base+mem.Phys(so), n); err != nil {
					t.Fatalf("line copy: %v", err)
				}
				copy(dst.model[do:do+n], src.model[so:so+n])
			}
		}

		// Verify every region once more, then tear down to baseline.
		for i := range regions {
			r := &regions[i]
			got := make([]byte, len(r.model))
			if err := m.Read(r.base, got); err != nil {
				t.Fatalf("final read: %v", err)
			}
			if !bytes.Equal(got, r.model) {
				t.Fatal("final read mismatch")
			}
			if err := m.FreePages(r.base, r.pages); err != nil {
				t.Fatalf("final free: %v", err)
			}
		}
		for d, want := range baseline {
			if got := m.InUseBytes(d); got != want {
				t.Fatalf("domain %d: %d bytes in use after teardown, baseline %d", d, got, want)
			}
		}
		// Recycle the chunks, so the next input's "never-written pages
		// read as zeros" check runs on scrubbed, reused storage.
		m.Release()
	})
}
