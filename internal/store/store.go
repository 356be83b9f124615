// Package store is the daemon's crash-safe result cache: a
// content-addressed map from (tool, seed, config, code-fingerprint) to a
// finished benchmark artifact. It exists so a warm simd never recomputes
// a sweep whose inputs have not changed, and it is built for the failure
// modes a long-running cache actually meets:
//
//   - torn writes: entries are written to a tmp file and renamed into
//     place, so a crash mid-Put leaves at most garbage in tmp/, never a
//     half-entry at a live key;
//   - bit rot / truncation: every entry carries a sha256 of its payload
//     in a header line, verified on every Get;
//   - corruption: a failed verification quarantines the entry (atomic
//     rename into quarantine/) and reports ErrCorrupt, so the caller
//     recomputes and re-Puts — a corrupt cache degrades to a cold cache,
//     it never serves bad bytes. Only the file that failed is moved: a
//     healed entry renamed into place by a concurrent Put is left live.
//
// Keys are sha256 hex of the canonical-JSON request descriptor (see Key),
// which includes a fingerprint of the serving binary — a rebuilt simd
// never serves artifacts computed by different code.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrMiss reports that no entry exists for the key.
var ErrMiss = errors.New("store: miss")

// ErrCorrupt reports that the entry at the key failed verification and
// has been quarantined; the caller should recompute and Put again.
var ErrCorrupt = errors.New("store: entry corrupt (quarantined)")

// header is the first line of every entry file, before the raw payload.
type header struct {
	Schema int    `json:"schema"`
	Key    string `json:"key"`
	SHA256 string `json:"sha256"`
	Size   int    `json:"size"`
}

// Stats are the store's operation counters (all atomic; safe to read
// while the daemon serves).
type Stats struct {
	Hits, Misses, Puts  uint64
	Corrupt, ReadErrors uint64
}

// Store is one on-disk cache rooted at a directory.
type Store struct {
	root string

	hits, misses, puts  atomic.Uint64
	corrupt, readErrors atomic.Uint64
	seq                 atomic.Uint64 // tmp/quarantine name uniquifier
	gets                atomic.Uint64 // for the injection knobs

	// renameMu orders Put's rename into entries/ against quarantine's
	// same-file check and rename out, so a quarantine never moves an
	// entry it did not read. Get's hit path takes no lock.
	renameMu sync.Mutex
	// beforeQuarantine, when set, runs between a failed verification and
	// the quarantine (tests force the heal-in-between interleaving).
	beforeQuarantine func()

	// Fault-injection knobs (chaos suite / simd -inject). CorruptEvery=N
	// flips one payload byte of every Nth entry on disk before reading
	// it back, exercising the real quarantine path; FailReadEvery=N makes
	// every Nth Get fail with a synthetic I/O error (retryable).
	CorruptEvery  int
	FailReadEvery int
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, "entries"), filepath.Join(dir, "tmp"), filepath.Join(dir, "quarantine")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		}
	}
	return &Store{root: dir}, nil
}

// Root returns the store's directory.
func (s *Store) Root() string { return s.root }

// Key derives the content address for a request: sha256 over the
// canonical JSON of the descriptor. Include everything that changes the
// result — tool name, seed, normalized config, and the code fingerprint —
// and nothing that doesn't (deadlines, cache-control flags).
func Key(desc any) (string, error) {
	b, err := json.Marshal(desc)
	if err != nil {
		return "", fmt.Errorf("store: key: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// BinaryFingerprint hashes the running executable's bytes, so cache keys
// change whenever the serving code does. Falls back to "dev" when the
// binary cannot be read (e.g. `go run` tmp binaries already deleted).
func BinaryFingerprint() string {
	exe, err := os.Executable()
	if err != nil {
		return "dev"
	}
	b, err := os.ReadFile(exe)
	if err != nil {
		return "dev"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func (s *Store) entryPath(key string) string {
	return filepath.Join(s.root, "entries", key[:2], key)
}

// Put stores payload under key atomically: full write to tmp/, fsync-free
// rename into entries/. A concurrent Get never observes a partial entry.
func (s *Store) Put(key string, payload []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	hdr := header{Schema: 1, Key: key, SHA256: payloadSum(payload), Size: len(payload)}
	hb, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	tmp := filepath.Join(s.root, "tmp", fmt.Sprintf("%s.%d.%d", key[:8], os.Getpid(), s.seq.Add(1)))
	data := append(append(hb, '\n'), payload...)
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	dst := s.entryPath(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: put: %w", err)
	}
	s.renameMu.Lock()
	err = os.Rename(tmp, dst)
	s.renameMu.Unlock()
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: put: %w", err)
	}
	s.puts.Add(1)
	return nil
}

// Get returns the payload stored under key. It returns ErrMiss when the
// key is absent, a retryable I/O error when the read fails, and
// ErrCorrupt — after quarantining the entry — when verification fails.
func (s *Store) Get(key string) ([]byte, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	n := s.gets.Add(1)
	if s.FailReadEvery > 0 && n%uint64(s.FailReadEvery) == 0 {
		s.readErrors.Add(1)
		return nil, fmt.Errorf("store: injected read failure (get %d)", n)
	}
	if s.CorruptEvery > 0 && n%uint64(s.CorruptEvery) == 0 {
		s.injectCorruption(key)
	}
	f, err := os.Open(s.entryPath(key))
	if errors.Is(err, os.ErrNotExist) {
		s.misses.Add(1)
		return nil, ErrMiss
	}
	if err != nil {
		s.readErrors.Add(1)
		return nil, fmt.Errorf("store: get: %w", err)
	}
	// Held open until quarantine, the file pins its inode: no newer entry
	// can reuse it and pass quarantine's same-file check.
	defer f.Close()
	fi, err := f.Stat()
	var data []byte
	if err == nil {
		data = make([]byte, fi.Size())
		_, err = io.ReadFull(f, data)
	}
	if err != nil {
		s.readErrors.Add(1)
		return nil, fmt.Errorf("store: get: %w", err)
	}
	payload, verr := verify(key, data)
	if verr != nil {
		s.corrupt.Add(1)
		if s.beforeQuarantine != nil {
			s.beforeQuarantine()
		}
		s.quarantine(key, fi)
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, verr)
	}
	s.hits.Add(1)
	return payload, nil
}

// verify checks an entry's header and payload checksum.
func verify(key string, data []byte) ([]byte, error) {
	nl := -1
	for i, b := range data {
		if b == '\n' {
			nl = i
			break
		}
	}
	if nl < 0 {
		return nil, errors.New("no header line")
	}
	var hdr header
	if err := json.Unmarshal(data[:nl], &hdr); err != nil {
		return nil, fmt.Errorf("bad header: %v", err)
	}
	if hdr.Schema != 1 {
		return nil, fmt.Errorf("unknown schema %d", hdr.Schema)
	}
	if hdr.Key != key {
		return nil, fmt.Errorf("key mismatch: entry claims %s", hdr.Key)
	}
	payload := data[nl+1:]
	if len(payload) != hdr.Size {
		return nil, fmt.Errorf("truncated: %d bytes, header says %d", len(payload), hdr.Size)
	}
	if got := payloadSum(payload); got != hdr.SHA256 {
		return nil, fmt.Errorf("checksum mismatch: %s != %s", got, hdr.SHA256)
	}
	return payload, nil
}

// quarantine moves the corrupt entry file Get read out of the live
// tree, but only if it is still the live file: a concurrent Put may have
// renamed a healed entry into place, and a concurrent reader may already
// have moved the corrupt one. Either way there is nothing left to move.
func (s *Store) quarantine(key string, read os.FileInfo) {
	path := s.entryPath(key)
	dst := filepath.Join(s.root, "quarantine",
		fmt.Sprintf("%s.%d.%d", key, os.Getpid(), s.seq.Add(1)))
	s.renameMu.Lock()
	defer s.renameMu.Unlock()
	if live, err := os.Stat(path); err == nil && os.SameFile(live, read) {
		// A failed rename leaves the corrupt entry live, where the next
		// Get finds it and quarantines it again.
		_ = os.Rename(path, dst)
	}
}

// injectCorruption flips one payload byte of the on-disk entry (chaos
// knob) so the normal Get path discovers real corruption.
func (s *Store) injectCorruption(key string) { _ = s.CorruptEntry(key) }

// CorruptEntry flips one byte of the on-disk entry for key — the chaos
// suite's bit-rot simulator. The next Get detects and quarantines it.
func (s *Store) CorruptEntry(key string) error {
	path := s.entryPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("store: empty entry %s", key)
	}
	data[len(data)-1] ^= 0x01
	return os.WriteFile(path, data, 0o644)
}

// QuarantinedCount reports how many entries sit in quarantine/ right now.
func (s *Store) QuarantinedCount() int {
	ents, err := os.ReadDir(filepath.Join(s.root, "quarantine"))
	if err != nil {
		return 0
	}
	return len(ents)
}

// Stats snapshots the operation counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:       s.hits.Load(),
		Misses:     s.misses.Load(),
		Puts:       s.puts.Load(),
		Corrupt:    s.corrupt.Load(),
		ReadErrors: s.readErrors.Load(),
	}
}

func payloadSum(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

func validKey(key string) error {
	if len(key) < 8 || strings.ContainsAny(key, "/\\.") {
		return fmt.Errorf("store: invalid key %q", key)
	}
	return nil
}
