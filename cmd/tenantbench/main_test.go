package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunWritesArtifactAndCPUProfile runs a one-scheme, one-attack,
// one-point subset with -cpuprofile and -memprofile: the artifact and
// two non-empty pprof files are all written once run returns.
func TestRunWritesArtifactAndCPUProfile(t *testing.T) {
	dir := t.TempDir()
	out, prof, heap := filepath.Join(dir, "tenants.json"), filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	var stdout, stderr bytes.Buffer
	opts := options{seed: 1, schemes: "shadow-copy", attacks: "stale-replay", tenants: "16", frames: "1500",
		parallel: 1, jsonOut: out, quiet: true, cpuProfile: prof, memProfile: heap}
	if err := run(opts, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("artifact not written: %v", err)
	}
	if !strings.Contains(string(data), `"tool": "tenantbench"`) {
		t.Error("artifact does not name tenantbench")
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Errorf("CPU profile: %v, size %v", err, fi)
	}
	if fi, err := os.Stat(heap); err != nil || fi.Size() == 0 {
		t.Errorf("heap profile: %v, size %v", err, fi)
	}
	if stdout.Len() != 0 {
		t.Errorf("-q still wrote to stdout:\n%s", stdout.String())
	}
}
