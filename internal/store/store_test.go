package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func put(t *testing.T, s *Store, payload string) string {
	t.Helper()
	key, err := Key(map[string]string{"payload": payload})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, []byte(payload)); err != nil {
		t.Fatal(err)
	}
	return key
}

func TestStoreRoundTrip(t *testing.T) {
	s := open(t)
	key := put(t, s, "artifact bytes")
	got, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "artifact bytes" {
		t.Fatalf("got %q", got)
	}
	if st := s.Stats(); st.Hits != 1 || st.Puts != 1 {
		t.Errorf("stats = %+v, want 1 hit 1 put", st)
	}
}

func TestStoreMiss(t *testing.T) {
	s := open(t)
	key, _ := Key("never stored")
	if _, err := s.Get(key); !errors.Is(err, ErrMiss) {
		t.Fatalf("err = %v, want ErrMiss", err)
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
}

func TestStoreRejectsBadKeys(t *testing.T) {
	s := open(t)
	for _, key := range []string{"", "short", "../../../../etc/passwd", "a/b/ccccccc"} {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted", key)
		}
		if _, err := s.Get(key); err == nil || errors.Is(err, ErrMiss) {
			t.Errorf("Get(%q) err = %v, want invalid-key error", key, err)
		}
	}
}

// corruptOnDisk rewrites the entry file for key through fn.
func corruptOnDisk(t *testing.T, s *Store, key string, fn func([]byte) []byte) {
	t.Helper()
	path := s.entryPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestStoreTruncatedEntryQuarantined(t *testing.T) {
	s := open(t)
	key := put(t, s, "a payload long enough to truncate meaningfully")
	corruptOnDisk(t, s, key, func(d []byte) []byte { return d[:len(d)-10] })

	if _, err := s.Get(key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if n := s.QuarantinedCount(); n != 1 {
		t.Fatalf("quarantined = %d, want 1", n)
	}
	// The live key must now be a clean miss, and a re-Put must heal it.
	if _, err := s.Get(key); !errors.Is(err, ErrMiss) {
		t.Fatalf("post-quarantine err = %v, want ErrMiss", err)
	}
	if err := s.Put(key, []byte("a payload long enough to truncate meaningfully")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(key); err != nil || !bytes.Contains(got, []byte("payload")) {
		t.Fatalf("after re-Put: %q, %v", got, err)
	}
}

func TestStoreBitFlippedChecksumQuarantined(t *testing.T) {
	s := open(t)
	key := put(t, s, "checksummed artifact")
	corruptOnDisk(t, s, key, func(d []byte) []byte {
		d[len(d)-1] ^= 0x40 // flip a payload bit; header sha no longer matches
		return d
	})
	if _, err := s.Get(key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Errorf("corrupt counter = %d, want 1", st.Corrupt)
	}
}

func TestStoreHeaderDamageQuarantined(t *testing.T) {
	for name, fn := range map[string]func([]byte) []byte{
		"garbage-header": func(d []byte) []byte { return append([]byte("not json\n"), d...) },
		"no-newline":     func(d []byte) []byte { return bytes.ReplaceAll(d, []byte("\n"), []byte(" ")) },
		"wrong-key": func(d []byte) []byte {
			return bytes.Replace(d, []byte(`"key":"`), []byte(`"key":"0`), 1)
		},
	} {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			key := put(t, s, "victim of header damage")
			corruptOnDisk(t, s, key, fn)
			if _, err := s.Get(key); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestStoreConcurrentReadersDuringQuarantine hammers one corrupted key
// from many readers while another goroutine recomputes-and-re-Puts, as
// the daemon does. Every Get must land in one of three legal outcomes —
// corrupt (quarantined now), miss (quarantined already), or the healthy
// re-Put payload — and never partial or stale bytes. Runs under
// `make race-smoke`.
func TestStoreConcurrentReadersDuringQuarantine(t *testing.T) {
	const readers = 8
	const rounds = 20
	s := open(t)
	good := []byte("the one true artifact")
	key, err := Key("concurrent-quarantine")
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < rounds; round++ {
		if err := s.Put(key, good); err != nil {
			t.Fatal(err)
		}
		corruptOnDisk(t, s, key, func(d []byte) []byte {
			d[len(d)-1] ^= 0xFF
			return d
		})

		var wg sync.WaitGroup
		errc := make(chan error, readers+1)
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := s.Get(key)
				switch {
				case err == nil:
					if !bytes.Equal(got, good) {
						errc <- fmt.Errorf("served wrong bytes: %q", got)
					}
				case errors.Is(err, ErrCorrupt), errors.Is(err, ErrMiss):
					// legal: this reader saw the corrupt entry or the gap
				default:
					errc <- fmt.Errorf("unexpected error: %v", err)
				}
			}()
		}
		// The recompute path: one writer heals the key concurrently.
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Put(key, good); err != nil {
				errc <- err
			}
		}()
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}
		// After the dust settles the key must serve the good payload.
		got, err := s.Get(key)
		if err != nil || !bytes.Equal(got, good) {
			t.Fatalf("round %d settled state: %q, %v", round, got, err)
		}
	}
}

// TestStoreQuarantineSparesHealedEntry forces the race the concurrent test
// only hits by chance: a reader reads corrupt bytes, a Put heals the key,
// and only then does the reader quarantine. The healed entry must stay.
func TestStoreQuarantineSparesHealedEntry(t *testing.T) {
	s := open(t)
	good := []byte("the healed artifact")
	key, err := Key("heal-before-quarantine")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, good); err != nil {
		t.Fatal(err)
	}
	corruptOnDisk(t, s, key, func(d []byte) []byte {
		d[len(d)-1] ^= 0xFF
		return d
	})
	s.beforeQuarantine = func() {
		if err := s.Put(key, good); err != nil {
			t.Error(err)
		}
	}
	if _, err := s.Get(key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of corrupt bytes = %v, want ErrCorrupt", err)
	}
	s.beforeQuarantine = nil
	if got, err := s.Get(key); err != nil || !bytes.Equal(got, good) {
		t.Fatalf("healed entry after quarantine: %q, %v", got, err)
	}
	if n := s.QuarantinedCount(); n != 0 {
		t.Errorf("quarantined %d entries, want 0 (the corrupt file was replaced, not moved)", n)
	}
}

func TestStoreInjectedReadFailure(t *testing.T) {
	s := open(t)
	key := put(t, s, "flaky medium")
	s.FailReadEvery = 2
	var failures, hits int
	for i := 0; i < 10; i++ {
		_, err := s.Get(key)
		switch {
		case err == nil:
			hits++
		case errors.Is(err, ErrCorrupt), errors.Is(err, ErrMiss):
			t.Fatalf("injected I/O failure misclassified: %v", err)
		default:
			failures++
		}
	}
	if failures == 0 || hits == 0 {
		t.Fatalf("failures=%d hits=%d, want both nonzero", failures, hits)
	}
}

func TestStoreInjectedCorruptionHeals(t *testing.T) {
	s := open(t)
	key := put(t, s, "bit-rot victim")
	s.CorruptEvery = 1 // every Get finds a freshly flipped byte
	if _, err := s.Get(key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	s.CorruptEvery = 0
	if err := s.Put(key, []byte("bit-rot victim")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(key); err != nil || string(got) != "bit-rot victim" {
		t.Fatalf("healed read: %q, %v", got, err)
	}
}

func TestStorePutIsAtomic(t *testing.T) {
	s := open(t)
	key := put(t, s, "v1")
	// Overwrite with a different payload; tmp+rename means readers see
	// either v1 or v2, never a blend. Spot-check the tmp dir drains.
	if err := s.Put(key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2" {
		t.Fatalf("got %q", got)
	}
	ents, err := os.ReadDir(filepath.Join(s.Root(), "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("tmp dir not drained: %d files", len(ents))
	}
}

func TestBinaryFingerprintStable(t *testing.T) {
	a, b := BinaryFingerprint(), BinaryFingerprint()
	if a != b || a == "" {
		t.Fatalf("fingerprint unstable: %q vs %q", a, b)
	}
}
