package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSubsetWritesArtifact(t *testing.T) {
	out := filepath.Join(t.TempDir(), "attacks.json")
	var stdout, stderr bytes.Buffer
	opts := options{
		seed:     1,
		payloads: "replay-window,stale-read",
		systems:  "strict,defer,copy",
		parallel: 1,
		jsonOut:  out,
	}
	if err := run(opts, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"replay-window", "stale-read", "BREACH", "breached by"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout.String())
		}
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("artifact not written: %v", err)
	}
	for _, want := range []string{`"tool": "attackbench"`, `"campaign"`, `"success"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("artifact missing %q", want)
		}
	}
}

func TestRunQuietSuppressesMatrix(t *testing.T) {
	var stdout, stderr bytes.Buffer
	opts := options{seed: 1, payloads: "stale-read", systems: "copy", parallel: 1, quiet: true}
	if err := run(opts, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("-q still wrote to stdout:\n%s", stdout.String())
	}
}

func TestRunRejectsUnknownNames(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(options{seed: 1, payloads: "no-such-payload", systems: "all", parallel: 1},
		&stdout, &stderr); err == nil {
		t.Error("unknown payload accepted")
	}
	if err := run(options{seed: 1, payloads: "all", systems: "no-such-system", parallel: 1},
		&stdout, &stderr); err == nil {
		t.Error("unknown system accepted")
	}
}
