package obs

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartProfiles: the CPU profile is written when stop runs, and so
// is the heap profile; an uncreatable path is an error, not a silent
// no-op.
func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, heap := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := StartProfiles(cpu, heap)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, p := range []string{cpu, heap} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, size %v", p, err, fi)
		}
	}
	if _, err := StartProfiles(filepath.Join(dir, "missing", "cpu.prof"), ""); err == nil {
		t.Error("StartProfiles accepted an uncreatable CPU profile path")
	}
	stop, err = StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	stop()
}
