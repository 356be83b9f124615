package bench

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/cycles"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestSpawnCores pins the spawn helper's contract: proc c is name<c> on
// core first+c, started(c) runs right after proc c spawns, in core order,
// and the first error a body returns is kept for after the window.
func TestSpawnCores(t *testing.T) {
	mach, err := NewMachine(DefaultConfig(SysNoIOMMU, RX, 3, 1500))
	if err != nil {
		t.Fatal(err)
	}
	defer mach.Teardown()
	errFirst, errLater := errors.New("first"), errors.New("later")
	var started []int
	cores := mach.SpawnCores("w", 2, 3, func(p *sim.Proc, c int) error {
		switch c {
		case 1:
			p.Sleep(100)
			return errFirst
		case 2:
			p.Sleep(200)
			return errLater
		}
		return nil
	}, func(c int) {
		if n := len(mach.Eng.Procs()); n != c+1 {
			t.Errorf("started(%d) ran with %d procs spawned, want %d", c, n, c+1)
		}
		started = append(started, c)
	})
	if fmt.Sprint(started) != "[0 1 2]" {
		t.Errorf("started ran for cores %v, want [0 1 2]", started)
	}
	if len(cores.Procs) != 3 {
		t.Fatalf("%d procs, want 3", len(cores.Procs))
	}
	for c, p := range cores.Procs {
		if want := fmt.Sprintf("w%d", c); p.Name() != want || p.Core() != 2+c {
			t.Errorf("proc %d is %s on core %d, want %s on core %d", c, p.Name(), p.Core(), want, 2+c)
		}
	}
	if cores.Err != nil {
		t.Errorf("error %v before the window ran", cores.Err)
	}
	mach.Measure(1, cores.Procs)
	if !errors.Is(cores.Err, errFirst) {
		t.Errorf("Err = %v, want the first error a body returned (%v)", cores.Err, errFirst)
	}
}

// TestMeasure pins the window helper's contract: it runs the window's
// cycles, sums the procs' busy cycles into an unclamped CPU%, and
// snapshots the profile only on an observed machine.
func TestMeasure(t *testing.T) {
	for _, observed := range []bool{false, true} {
		t.Run(fmt.Sprintf("observed=%v", observed), func(t *testing.T) {
			cfg := DefaultConfig(SysNoIOMMU, RX, 2, 1500)
			if observed {
				cfg.Obs = obs.New(false)
			}
			mach, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer mach.Teardown()
			window := cycles.FromMillis(0.5)
			cores := mach.SpawnCores("w", 0, 2, func(p *sim.Proc, c int) error {
				p.WorkSpan("work", cycles.TagOther, 1000*uint64(c+1))
				if c == 1 {
					p.Work(cycles.TagOther, 2*window) // busy past the window's end
				}
				return nil
			}, nil)
			w := mach.Measure(0.5, cores.Procs)
			if w.Cycles != window || mach.Eng.Now() != window {
				t.Errorf("ran %d cycles to t=%d, want %d", w.Cycles, mach.Eng.Now(), window)
			}
			var busy uint64
			for _, p := range cores.Procs {
				busy += p.Busy()
			}
			if busy == 0 || w.Busy != busy {
				t.Errorf("Busy = %d, want the procs' sum %d", w.Busy, busy)
			}
			if want := 100 * float64(busy) / (float64(window) * 2); w.CPUPct != want || w.CPUPct <= 100 {
				t.Errorf("CPUPct = %v, want unclamped %v (> 100)", w.CPUPct, want)
			}
			switch {
			case !observed && w.Profile != nil:
				t.Error("profile on an unobserved machine")
			case observed && w.Profile == nil:
				t.Error("no profile on an observed machine")
			case observed && w.Profile.TotalBusy != w.Busy:
				t.Errorf("profile TotalBusy = %d, want Busy %d", w.Profile.TotalBusy, w.Busy)
			}
		})
	}
}
