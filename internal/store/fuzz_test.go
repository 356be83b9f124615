package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreGet writes arbitrary bytes as the entry file of one key and
// reads it back with Get, which must never panic. Get may return a
// payload only when the entry's header line declares schema 1, this key,
// and the payload's exact length and sha256; for anything else it must
// report ErrCorrupt and move the entry into quarantine. The seeds are a
// valid Put entry and the truncated, bit-flipped and damaged-header
// entries of the quarantine tests.
func FuzzStoreGet(f *testing.F) {
	key, err := Key("fuzz")
	if err != nil {
		f.Fatal(err)
	}
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Put(key, []byte("a valid artifact payload")); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(s.entryPath(key))
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-1] ^= 0x40
	f.Add(valid)
	f.Add(valid[:len(valid)-10])
	f.Add(flipped)
	f.Add(append([]byte("not json\n"), valid...))
	f.Add(bytes.ReplaceAll(valid, []byte("\n"), []byte(" ")))
	f.Add(bytes.Replace(valid, []byte(`"key":"`), []byte(`"key":"0`), 1))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		path := s.entryPath(key)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(key)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Get = %v, want ErrCorrupt", err)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("corrupt entry still live (stat: %v)", err)
			}
			if n := s.QuarantinedCount(); n != 1 {
				t.Fatalf("%d entries quarantined, want 1", n)
			}
			return
		}
		line, payload, ok := bytes.Cut(data, []byte("\n"))
		if !ok {
			t.Fatal("served a payload from an entry with no header line")
		}
		var hdr header
		if err := json.Unmarshal(line, &hdr); err != nil {
			t.Fatalf("served a payload under an undecodable header: %v", err)
		}
		sum := sha256.Sum256(payload)
		switch {
		case !bytes.Equal(got, payload):
			t.Fatalf("served %q, the entry holds %q", got, payload)
		case hdr.Schema != 1 || hdr.Key != key:
			t.Fatalf("served a payload under header %+v", hdr)
		case hdr.Size != len(payload) || hdr.SHA256 != hex.EncodeToString(sum[:]):
			t.Fatalf("served %d unverified bytes under header %+v", len(payload), hdr)
		}
	})
}
