package main

import (
	"os"
	"path/filepath"
	"testing"
)

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckLinks(t *testing.T) {
	root := t.TempDir()
	write(t, filepath.Join(root, "doc", "GUIDE.md"),
		"[up](../README.md) [anchor](../README.md#quick-start) "+
			"[web](https://example.com/x.md) [self](#here)\n")
	write(t, filepath.Join(root, "README.md"), "[guide](doc/GUIDE.md)\n")
	if bad := checkLinks(root); bad != 0 {
		t.Fatalf("clean tree: %d violations, want 0", bad)
	}
	write(t, filepath.Join(root, "README.md"), "[gone](doc/MISSING.md)\n")
	if bad := checkLinks(root); bad != 1 {
		t.Fatalf("broken link: %d violations, want 1", bad)
	}
}

func TestCheckCommands(t *testing.T) {
	root := t.TempDir()
	write(t, filepath.Join(root, "cmd", "tool", "main.go"), "package main\n")
	write(t, filepath.Join(root, "doc", "GUIDE.md"),
		"`go run ./cmd/tool -x` and `go run ./cmd/<tool>` (a placeholder)\n")
	if bad := checkCommands(root); bad != 0 {
		t.Fatalf("clean tree: %d violations, want 0", bad)
	}
	write(t, filepath.Join(root, "README.md"), "go run ./cmd/gone -window 1\n")
	if bad := checkCommands(root); bad != 1 {
		t.Fatalf("missing command: %d violations, want 1", bad)
	}
}

func TestCheckMakeTargets(t *testing.T) {
	root := t.TempDir()
	write(t, filepath.Join(root, "Makefile"), "GO ?= go\n\nsmoke:\n\t$(GO) run ./x\n\nci: smoke\n")
	write(t, filepath.Join(root, "README.md"),
		"Run `make smoke` or `make X` (a placeholder).\n"+
			"   make a point in prose\n\n```sh\nmake ci\n$ make smoke\n```\n")
	write(t, filepath.Join(root, "CHANGES.md"), "- Deleted `make chaos-smoke`.\n")
	if bad := checkMakeTargets(root); bad != 0 {
		t.Fatalf("clean tree: %d violations, want 0", bad)
	}
	write(t, filepath.Join(root, "doc", "GUIDE.md"),
		"Gate with `make chaos-smoke`.\n\n```\n$ make attack-baseline\n```\n")
	if bad := checkMakeTargets(root); bad != 2 {
		t.Fatalf("missing targets: %d violations, want 2", bad)
	}
}

func TestCheckPackageComments(t *testing.T) {
	root := t.TempDir()
	write(t, filepath.Join(root, "internal", "good", "good.go"),
		"// Package good is documented.\npackage good\n")
	write(t, filepath.Join(root, "internal", "testonly", "x_test.go"),
		"// Package testonly has its comment in a test file only.\npackage testonly\n")
	write(t, filepath.Join(root, "internal", "bare", "bare.go"),
		"package bare\n")
	// good passes; testonly (no non-test files) and bare (no comment) fail.
	if bad := checkPackageComments(root); bad != 2 {
		t.Fatalf("violations = %d, want 2", bad)
	}
}

func TestCheckDiagram(t *testing.T) {
	root := t.TempDir()
	write(t, filepath.Join(root, "internal", "sim", "sim.go"), "package sim\n")
	write(t, filepath.Join(root, "internal", "iommu", "iommu.go"), "package iommu\n")
	arch := func(diagram string) {
		write(t, filepath.Join(root, "ARCHITECTURE.md"),
			"# A\n\nSee internal/gone below the diagram.\n\n## Layer diagram\n\n```\n"+
				diagram+"\n```\n\nProse may name internal/elsewhere.\n")
	}
	arch("internal/iommu\ninternal/sim")
	if bad := checkDiagram(root); bad != 0 {
		t.Fatalf("clean tree: %d violations, want 0", bad)
	}
	// A deleted package left in the diagram, and a new one left out.
	arch("internal/iommu\ninternal/sim  internal/trace")
	write(t, filepath.Join(root, "internal", "obs", "obs.go"), "package obs\n")
	if bad := checkDiagram(root); bad != 2 {
		t.Fatalf("stale diagram: %d violations, want 2", bad)
	}
	write(t, filepath.Join(root, "ARCHITECTURE.md"), "# A\n\nNo diagram here.\n")
	if bad := checkDiagram(root); bad != 1 {
		t.Fatalf("missing diagram: %d violations, want 1", bad)
	}
}

// TestRepoIsClean runs every check against the actual repository, the
// same invocation `make doc-check` performs.
func TestRepoIsClean(t *testing.T) {
	root := "../.."
	if bad := checkLinks(root); bad != 0 {
		t.Errorf("repo markdown links: %d broken", bad)
	}
	if bad := checkCommands(root); bad != 0 {
		t.Errorf("repo markdown commands: %d name a missing cmd/ directory", bad)
	}
	if bad := checkMakeTargets(root); bad != 0 {
		t.Errorf("repo markdown make commands: %d name a missing Makefile target", bad)
	}
	if bad := checkPackageComments(root); bad != 0 {
		t.Errorf("repo package comments: %d missing", bad)
	}
	if bad := checkDiagram(root); bad != 0 {
		t.Errorf("repo layer diagram: %d packages out of sync with internal/", bad)
	}
}
