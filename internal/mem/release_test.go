package mem

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// drainPool empties the process-wide chunk free list so a test starts
// from a known state.
func drainPool() {
	chunkPool.Lock()
	defer chunkPool.Unlock()
	clear(chunkPool.free)
	chunkPool.free = chunkPool.free[:0]
}

// firstNonzero returns the index of the first nonzero byte, or -1.
func firstNonzero(b []byte) int {
	for i, v := range b {
		if v != 0 {
			return i
		}
	}
	return -1
}

func poolLen() int {
	chunkPool.Lock()
	defer chunkPool.Unlock()
	return len(chunkPool.free)
}

// TestReleaseRecyclesZeroedChunk dirties three chunks through every
// write path, releases them, and checks that the next Memory gets the
// very same chunks back, most recently released first (the free list is
// LIFO), with every byte zero. The writes are at least five non-zero
// lines wide, so they materialize page chunks, not slots.
func TestReleaseRecyclesZeroedChunk(t *testing.T) {
	drainPool()
	m := New(1)
	a, err := m.AllocPages(0, 3*chunkFrames-1) // frames 1..47: chunks 0, 1 and 2
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Write(a+10, bytes.Repeat([]byte{0xaa}, 3*PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := m.Fill(Buf{Addr: a + 20*PageSize, Size: PageSize}, 0x5c); err != nil {
		t.Fatal(err)
	}
	// The copy straddles the boundary between chunks 1 and 2.
	if err := m.Copy(a+30*PageSize+7, a+10, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	// Free then rewrite: the recycled frame is cleared on reallocation,
	// and the new bytes mark its lines dirty again.
	if err := m.FreePages(a+7*PageSize, 1); err != nil {
		t.Fatal(err)
	}
	p, err := m.AllocPages(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p != a+7*PageSize {
		t.Fatalf("single-page alloc did not reuse the freed frame: %#x", uint64(p))
	}
	if err := m.Write(p+100, bytes.Repeat([]byte{0x33}, 2000)); err != nil {
		t.Fatal(err)
	}
	released := slices.Clone(m.doms[0].chunks)
	if len(released) != 3 || slices.Contains(released, nil) {
		t.Fatalf("writes materialized chunks %v, want chunks 0, 1 and 2", released)
	}
	if n := len(m.doms[0].slotBlocks); n != 0 {
		t.Fatalf("writes of five or more lines took %d slot blocks, want 0", n)
	}
	m.Release()
	if got := poolLen(); got != 3 {
		t.Fatalf("free list holds %d chunks after Release, want 3", got)
	}

	m2 := New(1)
	b, err := m2.AllocPages(0, 3*chunkFrames-1)
	if err != nil {
		t.Fatal(err)
	}
	// Frames 1, 16 and 32 are the first written in chunks 0, 1 and 2,
	// each with five lines of ones.
	five := bytes.Repeat([]byte{1}, slotLines*lineSize+1)
	firsts := []int{1, chunkFrames, 2 * chunkFrames}
	for i, f := range firsts {
		if err := m2.Write(b+Phys((f-1)*PageSize), five); err != nil {
			t.Fatal(err)
		}
		if got, want := m2.doms[0].chunks[i], released[len(released)-1-i]; got != want {
			t.Fatalf("chunk %d is not the released chunk %d: the free list is not LIFO", i, len(released)-1-i)
		}
	}
	got := make([]byte, (3*chunkFrames-1)*PageSize)
	if err := m2.Read(b, got); err != nil {
		t.Fatal(err)
	}
	for _, f := range firsts {
		off := (f - 1) * PageSize
		if i := slices.Index(got[off:off+len(five)], 0); i >= 0 {
			t.Fatalf("fresh write to frame %d read back a zero at byte %d", f, i)
		}
		clear(got[off : off+len(five)])
	}
	if i := firstNonzero(got); i >= 0 {
		t.Fatalf("recycled chunk not zeroed: byte %d is nonzero", i)
	}
	for i, fr := range m2.doms[0].frames {
		want := uint64(0)
		if slices.Contains(firsts, i) {
			want = lineMask(0, len(five))
		}
		if fr.lines != want || fr.slot != 0 {
			t.Fatalf("frame %d has lines %#x and slot %d, want lines %#x and no slot", i, fr.lines, fr.slot, want)
		}
	}
	m2.Release()
}

// TestChunkIsPageAligned pins the chunk's geometry: exactly 64 KiB of
// page data, a multiple of the Go runtime's 8 KiB page (so a chunk
// allocates with no rounding), and every frame 4 KiB-aligned, whether
// the chunk is fresh or recycled. The chunks are materialized by a
// write of distinct bytes: a Fill would leave every frame uniform.
func TestChunkIsPageAligned(t *testing.T) {
	if got := unsafe.Sizeof(chunk{}); got != 65536 || got%8192 != 0 {
		t.Fatalf("chunk is %d bytes, want 65536, a multiple of 8192", got)
	}
	pat := make([]byte, 4*chunkFrames*PageSize)
	for i := range pat {
		pat[i] = byte(i) | 1
	}
	drainPool()
	for round := 0; round < 2; round++ { // fresh chunks, then recycled ones
		m := New(1)
		a, err := m.AllocPages(0, 4*chunkFrames)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Write(a, pat); err != nil {
			t.Fatal(err)
		}
		if got := materialized(m); got != 5 {
			t.Fatalf("round %d: a write over 64 frames from frame 1 materialized %d chunks, want 5", round, got)
		}
		for ci, c := range m.doms[0].chunks {
			for i := range c {
				if p := uintptr(unsafe.Pointer(&c[i])); p%PageSize != 0 {
					t.Fatalf("round %d: chunk %d frame %d at %#x is not page-aligned", round, ci, i, p)
				}
			}
		}
		m.Release()
	}
	drainPool()
}

// materialized counts the chunks of m's first domain that hold pages.
func materialized(m *Memory) int {
	n := 0
	for _, c := range m.doms[0].chunks {
		if c != nil {
			n++
		}
	}
	return n
}

// TestSparseWritesMaterializeOneChunkEach: five-line writes to pages 16
// frames apart each materialize exactly one 64 KiB chunk, and only the
// chunk around the page written.
func TestSparseWritesMaterializeOneChunkEach(t *testing.T) {
	drainPool()
	const pages = 64
	m := New(1)
	a, err := m.AllocPages(0, pages*chunkFrames)
	if err != nil {
		t.Fatal(err)
	}
	five := bytes.Repeat([]byte{0xee}, slotLines*lineSize+1)
	for i := 0; i < pages; i++ {
		if err := m.Write(a+Phys(i*chunkFrames*PageSize), five); err != nil {
			t.Fatal(err)
		}
		if got := materialized(m); got != i+1 {
			t.Fatalf("after %d sparse writes %d chunks are materialized", i+1, got)
		}
	}
	if got := materialized(m) * int(unsafe.Sizeof(chunk{})); got != pages<<16 {
		t.Fatalf("%d sparse writes hold %d bytes of chunk storage, want %d", pages, got, pages<<16)
	}
	m.Release()
	if got := poolLen(); got != pages {
		t.Fatalf("free list holds %d chunks after Release, want %d", got, pages)
	}
	drainPool()
}

// TestHeaderOnlyFramesStoreOneLine writes the NIC's RX frame shape, a
// two-byte header over 1,498 zero bytes, into 64 frames: no chunk is
// materialized, each frame stores the one line its header is in, the
// frames read back exactly, and a fifth non-zero line then promotes a
// frame's chunk without losing the lines its slot held.
func TestHeaderOnlyFramesStoreOneLine(t *testing.T) {
	drainPool()
	const pages = 64
	m := New(1)
	a, err := m.AllocPages(0, pages)
	if err != nil {
		t.Fatal(err)
	}
	rx := make([]byte, 1500)
	for i := 0; i < pages; i++ {
		rx[0], rx[1] = byte(i), 0xff
		if err := m.Write(a+Phys(i*PageSize), rx); err != nil {
			t.Fatal(err)
		}
	}
	if got := materialized(m); got != 0 {
		t.Fatalf("%d header-only writes materialized %d chunks, want 0", pages, got)
	}
	ds := &m.doms[0]
	for i := 1; i <= pages; i++ {
		if f := ds.frames[i]; f.lines != 1 || f.slot == 0 {
			t.Fatalf("frame %d has lines %#x and slot %d, want line 0 in a slot", i, f.lines, f.slot)
		}
	}
	if got := len(ds.slotBlocks); got != 1 {
		t.Fatalf("%d one-line frames hold %d slot blocks, want 1", pages, got)
	}
	got := make([]byte, len(rx))
	for i := 0; i < pages; i++ {
		rx[0], rx[1] = byte(i), 0xff
		if err := m.Read(a+Phys(i*PageSize), got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, rx) {
			t.Fatalf("frame %d read back %x..., want %x...", i+1, got[:4], rx[:4])
		}
	}
	// Three more lines in the last frame of chunk 0 (frame 15) fill its
	// slot; a fifth then promotes the chunk.
	last := a + 14*PageSize
	if err := m.Fill(Buf{Addr: last + 1024, Size: 3 * lineSize}, 0x11); err != nil {
		t.Fatal(err)
	}
	if got := materialized(m); got != 0 {
		t.Fatalf("a frame of four non-zero lines materialized %d chunks, want 0", got)
	}
	if err := m.Write(last+3000, []byte{0x22}); err != nil {
		t.Fatal(err)
	}
	if got := materialized(m); got != 1 {
		t.Fatalf("a fifth non-zero line materialized %d chunks, want 1", got)
	}
	for i := 0; i < chunkFrames-1; i++ {
		if f := ds.frames[1+i]; f.slot != 0 {
			t.Fatalf("frame %d kept slot %d after its chunk was promoted", 1+i, f.slot)
		}
		rx[0], rx[1] = byte(i), 0xff
		if err := m.Read(a+Phys(i*PageSize), got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:2], rx[:2]) || firstNonzero(got[2:1024]) >= 0 {
			t.Fatalf("frame %d lost its header in the promotion", 1+i)
		}
	}
	m.Release()
	drainPool()
}

// TestTenantRegionsStaySparse lays out 1,024 regions the way the
// multi-tenant datapath does: a private page filled with a sentinel
// byte, then eight 2 KiB RX buffers, each receiving a two-byte header
// over zeros. No chunk is materialized: the private pages are uniform,
// and each buffer page stores its two header lines in a slot.
func TestTenantRegionsStaySparse(t *testing.T) {
	if got := unsafe.Sizeof(frame{}); got != 16 {
		t.Fatalf("frame is %d bytes, want 16", got)
	}
	drainPool()
	const regions, bufs, bufSize = 1024, 8, 2048
	sentinel := func(i int) byte { return byte(0xA1 + i*37) } // campaign.SentinelByte
	m := New(1)
	rx := make([]byte, 1500)
	rx[0], rx[1] = 0x05, 0xdc
	bases := make([]Phys, regions)
	for i := range bases {
		base, err := m.AllocPages(0, 1+bufs*bufSize/PageSize)
		if err != nil {
			t.Fatal(err)
		}
		bases[i] = base
		if err := m.Fill(Buf{Addr: base, Size: PageSize}, sentinel(i)); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < bufs; b++ {
			if err := m.Write(base+PageSize+Phys(b*bufSize), rx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := materialized(m); got != 0 {
		t.Fatalf("%d tenant regions materialized %d chunks, want 0", regions, got)
	}
	if got, want := len(m.doms[0].slotBlocks), regions*bufs/2/slotsPerChunk; got != want {
		t.Errorf("%d buffer pages hold %d slot blocks, want %d", regions*bufs/2, got, want)
	}
	page := make([]byte, PageSize)
	for i, base := range bases {
		if err := m.Read(base, page); err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(page, []byte{sentinel(i)}); n != PageSize {
			t.Fatalf("region %d: %d bytes of its private page hold the sentinel, want %d", i, n, PageSize)
		}
	}
	m.Release()
	drainPool()
}

// TestReleasedMemoryRejectsAccess pins the safety half of the contract:
// a released Memory errors on every operation instead of reaching
// storage that now belongs to another machine.
func TestReleasedMemoryRejectsAccess(t *testing.T) {
	m := New(2)
	a, err := m.AllocPages(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Write(a, []byte("secret")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	if err := m.Read(a, buf); err != nil { // warm the translation cache
		t.Fatal(err)
	}
	m.Release()
	m.Release() // idempotent

	checks := map[string]error{
		"Read":       m.Read(a, buf),
		"Write":      m.Write(a, []byte("x")),
		"Copy":       m.Copy(a+PageSize, a, 16),
		"Fill":       m.Fill(Buf{Addr: a, Size: 16}, 0xff),
		"FreePages":  m.FreePages(a, 1),
		"AllocPages": func() error { _, err := m.AllocPages(0, 1); return err }(),
	}
	for op, err := range checks {
		if err == nil {
			t.Errorf("%s on a released Memory succeeded", op)
		}
	}
	if _, err := m.Snapshot(Buf{Addr: a, Size: 6}); err == nil {
		t.Error("Snapshot on a released Memory succeeded")
	}
	if m.Allocated(a) {
		t.Error("a released Memory still reports allocated pages")
	}
	for d := 0; d < 2; d++ {
		if got := m.InUseBytes(d); got != 0 {
			t.Errorf("InUseBytes(%d) = %d after Release, want 0", d, got)
		}
	}
}

// TestChunkPoolCapped releases more chunks than the cap allows and checks
// the free list stops at maxFreeChunks: 256 chunks, 16 MiB.
func TestChunkPoolCapped(t *testing.T) {
	if got := maxFreeChunks * unsafe.Sizeof(chunk{}); maxFreeChunks != 256 || got != 16<<20 {
		t.Fatalf("free list cap is %d chunks, %d bytes; want 256 chunks, 16 MiB", maxFreeChunks, got)
	}
	drainPool()
	for round := 0; round < 2; round++ {
		m := New(1)
		const chunks = maxFreeChunks + 4
		a, err := m.AllocPages(0, chunks*chunkFrames)
		if err != nil {
			t.Fatal(err)
		}
		five := bytes.Repeat([]byte{0xee}, slotLines*lineSize+1)
		for i := 0; i < chunks; i++ {
			if err := m.Write(a+Phys(i*chunkFrames*PageSize), five); err != nil {
				t.Fatal(err)
			}
		}
		m.Release()
		if got := poolLen(); got != maxFreeChunks {
			t.Fatalf("round %d: free list holds %d chunks, want the cap %d", round, got, maxFreeChunks)
		}
	}
	drainPool()
}

// TestChunkPoolRace runs whole Memory lifecycles on several goroutines
// at once, all drawing from and returning to the shared free list. Run
// under -race (make race-smoke); it also checks that no goroutine ever
// sees another's bytes in a recycled chunk.
func TestChunkPoolRace(t *testing.T) {
	drainPool()
	const workers, rounds, pages = 4, 20, 300
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pat := bytes.Repeat([]byte{byte(w + 1)}, 512)
			got := make([]byte, PageSize)
			for r := 0; r < rounds; r++ {
				m := New(2)
				a, err := m.AllocPages(r%2, pages)
				if err != nil {
					errs <- err
					return
				}
				// Which pages get written alternates by round and worker,
				// so a chunk's previous owner wrote where this one reads
				// never-written pages.
				written := func(i int) bool { return (i+r+w)%2 == 0 }
				for i := 0; i < pages; i++ {
					if !written(i) {
						continue
					}
					if err := m.Write(a+Phys(i*PageSize), pat); err != nil {
						errs <- err
						return
					}
				}
				// The 512-byte pattern is eight lines, so every chunk
				// holding a written page is materialized, from the
				// shared list once earlier rounds have released theirs.
				if cs := m.doms[r%2].chunks; len(cs) == 0 || slices.Contains(cs, nil) {
					errs <- fmt.Errorf("worker %d round %d: written pages did not materialize their chunks", w, r)
					return
				}
				for i := 0; i < pages; i++ {
					if err := m.Read(a+Phys(i*PageSize), got); err != nil {
						errs <- err
						return
					}
					want := 0
					if written(i) {
						want = len(pat)
						if !bytes.Equal(got[:want], pat) {
							errs <- fmt.Errorf("worker %d page %d: pattern lost", w, i)
							return
						}
					}
					if firstNonzero(got[want:]) >= 0 {
						errs <- fmt.Errorf("worker %d page %d: stale bytes in a recycled chunk", w, i)
						return
					}
				}
				m.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := poolLen(); got == 0 || got > maxFreeChunks {
		t.Errorf("free list holds %d chunks, want 1 to the cap %d", got, maxFreeChunks)
	}
}
