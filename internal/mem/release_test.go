package mem

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
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

// TestReleaseRecyclesZeroedChunk dirties a chunk through every write
// path, releases it, and checks that the next Memory gets the very same
// chunk back (the free list is LIFO) with every byte zero.
func TestReleaseRecyclesZeroedChunk(t *testing.T) {
	drainPool()
	m := New(1)
	a, err := m.AllocPages(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Write(a+10, bytes.Repeat([]byte{0xaa}, 3*PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := m.Fill(Buf{Addr: a + 4*PageSize, Size: PageSize}, 0x5c); err != nil {
		t.Fatal(err)
	}
	if err := m.Copy(a+5*PageSize+7, a+10, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	// Free then rewrite: the recycled frame is cleared on reallocation,
	// and the new bytes raise its dirty watermark again.
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
	chunk := m.doms[0].chunks[0]
	if chunk == nil {
		t.Fatal("writes did not materialize a chunk")
	}
	m.Release()
	if got := poolLen(); got != 1 {
		t.Fatalf("free list holds %d chunks after Release, want 1", got)
	}

	m2 := New(1)
	b, err := m2.AllocPages(0, chunkFrames-1) // every allocatable frame of chunk 0
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Write(b, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if m2.doms[0].chunks[0] != chunk {
		t.Fatal("New did not reuse the most recently released chunk")
	}
	got := make([]byte, (chunkFrames-1)*PageSize)
	if err := m2.Read(b, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("fresh write read back as %#x", got[0])
	}
	if i := firstNonzero(got[1:]); i >= 0 {
		t.Fatalf("recycled chunk not zeroed: byte %d is nonzero", i+1)
	}
	for i := range chunk {
		if f := &chunk[i]; f.dirty != 0 && !(i == 1 && f.dirty == 1) {
			t.Fatalf("frame %d keeps dirty watermark %d", i, f.dirty)
		}
	}
	m2.Release()
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
// the free list stops at maxFreeChunks.
func TestChunkPoolCapped(t *testing.T) {
	drainPool()
	for round := 0; round < 2; round++ {
		m := New(1)
		const chunks = maxFreeChunks + 4
		a, err := m.AllocPages(0, chunks*chunkFrames)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < chunks; i++ {
			if err := m.Write(a+Phys(i*chunkFrames*PageSize), []byte{0xee}); err != nil {
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
	if got := poolLen(); got > maxFreeChunks {
		t.Errorf("free list holds %d chunks, over the cap %d", got, maxFreeChunks)
	}
}
