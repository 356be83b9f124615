package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/iommu"
)

// TestPartialFailureSurfacesErrorAndKeepsGoing is the regression test for
// the bug where the first failing system aborted the whole demo: the
// error of one system must not hide the others' results, and must still
// make run() fail (so main exits non-zero).
func TestPartialFailureSurfacesErrorAndKeepsGoing(t *testing.T) {
	var out bytes.Buffer
	err := run(options{
		window:  3,
		systems: []string{bench.SysLinuxDefer, "no-such-system", bench.SysCopy},
	}, &out)
	if err == nil {
		t.Fatal("run succeeded despite a failing system")
	}
	if !strings.Contains(err.Error(), "no-such-system") {
		t.Errorf("error does not name the failing system: %v", err)
	}
	got := out.String()
	// The systems after the failure still ran and printed their outcomes.
	for _, want := range []string{bench.SysLinuxDefer, bench.SysCopy, "sub-page leak"} {
		if !strings.Contains(got, want) {
			t.Errorf("partial results missing %q:\n%s", want, got)
		}
	}
	if !strings.Contains(got, "FAILED") {
		t.Errorf("failing system's error not surfaced inline:\n%s", got)
	}
}

func TestRunAllSystemsSucceeds(t *testing.T) {
	var out bytes.Buffer
	if err := run(options{window: 3, systems: bench.ExtendedSystems}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, sys := range bench.ExtendedSystems {
		if !strings.Contains(out.String(), sys) {
			t.Errorf("output missing system %q", sys)
		}
	}
	if !strings.Contains(out.String(), "leaked co-located secret") {
		t.Error("no leaked-secret line for any vulnerable system")
	}
}

// TestTraceLineFormat pins the -trace line layout: the time in µs, the
// category padded to six columns, then the event's detail.
func TestTraceLineFormat(t *testing.T) {
	for _, c := range []struct {
		e    iommu.Event
		want string
	}{
		{iommu.Event{At: 2400, Kind: iommu.EventFault, Dev: 1, IOVA: 0x5000, Perm: iommu.PermWrite, Reason: "not present"},
			"       1.000us fault  dev 1 iova 0x5000 want w: not present"},
		{iommu.Event{At: 2400, Kind: iommu.EventInval, Arg: 9344},
			"       1.000us inval  submitted, hw completes at 9344"},
	} {
		if got := traceLine(c.e); got != c.want {
			t.Errorf("traceLine = %q, want %q", got, c.want)
		}
	}
}

// TestTraceLineClock: a trace line's time is the event's cycle count at
// the simulation's 2.4 GHz clock, so 4800 cycles is 2 µs.
func TestTraceLineClock(t *testing.T) {
	for _, c := range []struct {
		at   uint64
		want string
	}{
		{0, "0.000us"},
		{4800, "2.000us"},
		{24000, "10.000us"},
	} {
		got := traceLine(iommu.Event{At: c.at, Kind: iommu.EventMap})
		if !strings.HasPrefix(strings.TrimSpace(got), c.want+" ") {
			t.Errorf("traceLine at %d cycles = %q, want time %s", c.at, got, c.want)
		}
	}
}

// TestDumpAttackTrace: the deferred-window attack's trace shows the map,
// the unmap, the submitted invalidation and the faults, in time order.
func TestDumpAttackTrace(t *testing.T) {
	var out bytes.Buffer
	if err := dumpAttackTrace(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	cats := map[string]bool{}
	last := -1.0
	for _, l := range lines[1 : len(lines)-1] {
		var us float64
		var cat string
		if _, err := fmt.Sscanf(l, "%fus %s", &us, &cat); err != nil {
			t.Fatalf("unparsable trace line %q: %v", l, err)
		}
		if us < last {
			t.Errorf("trace goes back in time at %q", l)
		}
		last = us
		cats[cat] = true
	}
	for _, want := range []string{"map", "unmap", "inval", "fault"} {
		if !cats[want] {
			t.Errorf("no %s line in the trace:\n%s", want, out.String())
		}
	}
	if !strings.Contains(lines[len(lines)-1], "post-unmap write landed = true") {
		t.Errorf("trace does not end with the attack's outcome:\n%s", out.String())
	}
}
