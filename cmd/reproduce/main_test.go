package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/report"
)

// TestMain lets the test binary stand in for the command: run with
// "reproduce" as its first argument, it is main with the arguments that
// follow, so tests can check exit codes end to end.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "reproduce" {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain invokes main with a fresh flag set, as the shell would.
func runMain(t *testing.T, args ...string) {
	t.Helper()
	flag.CommandLine = flag.NewFlagSet("reproduce", flag.ExitOnError)
	os.Args = append([]string{"reproduce"}, args...)
	main()
}

func TestMainWritesArtifact(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.json")
	runMain(t, "-window", "0.5", "-skip-sensitivity",
		"-experiment", "table1,fig3", "-json", out)
	a, err := report.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Experiments) != 3 || a.Experiments[0].Name != "table1" ||
		a.Experiments[2].Name != "farm" {
		names := make([]string, len(a.Experiments))
		for i, e := range a.Experiments {
			names[i] = e.Name
		}
		t.Fatalf("experiments = %v, want [table1 fig3 farm]", names)
	}
	if len(a.Attacks) == 0 {
		t.Error("table1 run recorded no attack verdicts")
	}
	if a.CreatedAt == "" {
		t.Error("artifact missing created_at")
	}
}

func TestMainViaDaemon(t *testing.T) {
	dir := t.TempDir()
	sock := filepath.Join(dir, "d.sock")
	d, err := daemon.New(daemon.Config{
		Socket:      sock,
		StoreDir:    filepath.Join(dir, "store"),
		Parallel:    2,
		Fingerprint: "test",
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve()
	t.Cleanup(d.Shutdown)
	c := &daemon.Client{Socket: sock}
	if err := c.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(dir, "cold.json")
	runMain(t, "-daemon", sock, "-window", "0.5", "-skip-sensitivity",
		"-experiment", "fig3", "-json", out)
	a, err := report.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Experiments) != 2 || a.Experiments[0].Name != "fig3" {
		t.Fatalf("daemon artifact has %d experiments", len(a.Experiments))
	}

	// Second request for the same spec must be served memoized and
	// byte-identical.
	warm := filepath.Join(dir, "warm.json")
	runMain(t, "-daemon", sock, "-window", "0.5", "-skip-sensitivity",
		"-experiment", "fig3", "-json", warm)
	b1, _ := os.ReadFile(out)
	b2, err := os.ReadFile(warm)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("memoized daemon artifact differs from the computed one")
	}
}

func TestMainCycleReportPrecedesFarm(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.json")
	runMain(t, "-experiment", "fig11", "-window", "0.5", "-cyclereport", "-json", out)
	a, err := report.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range a.Experiments {
		names = append(names, e.Name)
	}
	want := []string{"fig11", "cycles-mtu", "cycles-64k", "cycles-rr", "cycles-kv", "cycles-micro", "farm"}
	if !slices.Equal(names, want) {
		t.Errorf("experiments = %v, want %v", names, want)
	}
}

// TestDaemonRejectsInProcessFlags: -daemon computes nothing in-process,
// so flags that only shape an in-process run are a usage error (exit 2)
// naming each one, not silently dropped.
func TestDaemonRejectsInProcessFlags(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self, "reproduce", "-daemon", filepath.Join(t.TempDir(), "none.sock"),
		"-cyclereport", "-parallel", "2", "-tracefile", "t.json", "-window", "1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2; stderr:\n%s", err, stderr.String())
	}
	msg := strings.SplitN(stderr.String(), "\n", 2)[0]
	for _, want := range []string{"-cyclereport", "-parallel", "-tracefile", "-daemon"} {
		if !strings.Contains(msg, want) {
			t.Errorf("usage error %q does not name %s", msg, want)
		}
	}
	if strings.Contains(msg, "-window") {
		t.Errorf("usage error %q names -window, which the daemon honours", msg)
	}
}

func TestArtifactPath(t *testing.T) {
	if p := artifactPath("x.json"); p != "x.json" {
		t.Errorf("artifactPath passthrough = %q", p)
	}
	if p := artifactPath("auto"); filepath.Ext(p) != ".json" || len(p) != len("BENCH_2006-01-02.json") {
		t.Errorf("artifactPath(auto) = %q", p)
	}
}

// TestStartProfilesWritesBoth: a run with -cpuprofile and -memprofile
// writes both profiles by the time main returns.
func TestStartProfilesWritesBoth(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	runMain(t, "-window", "0.5", "-experiment", "apimicro", "-cpuprofile", cpu, "-memprofile", mem)
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, size %v", p, err, fi)
		}
	}
}
