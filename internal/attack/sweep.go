package attack

import (
	"repro/internal/campaign"
	"repro/internal/cycles"
	"repro/internal/sim"
)

// WindowSample is one point of the vulnerability-window sweep: did a
// device write replayed delayUs after dma_unmap reach OS memory?
type WindowSample struct {
	DelayUs float64
	Landed  bool
}

// WindowSweep measures how long after dma_unmap a replayed device write
// still lands, for a given protection strategy. Under Linux-style deferred
// protection the window extends to the earlier of the 250-unmap batch or
// the 10 ms timer — the paper (§3) observed that corrupting a buffer
// within 10us of its unmap crashes Linux, and notes buffers can stay
// accessible "for up to 10 milliseconds".
func WindowSweep(system string, delaysUs []float64) ([]WindowSample, error) {
	var out []WindowSample
	for _, d := range delaysUs {
		landed, err := windowProbe(system, d)
		if err != nil {
			return nil, err
		}
		out = append(out, WindowSample{DelayUs: d, Landed: landed})
	}
	return out, nil
}

// windowProbe runs the replay-window payload once at the given delay on a
// fresh machine (no flush check: the sweep charts the raw window).
func windowProbe(system string, delayUs float64) (bool, error) {
	t, err := campaign.NewTarget(system, 1)
	if err != nil {
		return false, err
	}
	w := campaign.NewReplayWindow(delayUs, false)
	var r campaign.Result
	var probeErr error
	t.Mach.Eng.Spawn("victim", 0, 0, func(p *sim.Proc) {
		probeErr = campaign.Execute(p, t, w, &r)
	})
	t.Mach.Eng.Run(cycles.FromMillis(delayUs/1000 + 30))
	t.Mach.Teardown()
	return w.Landed(), probeErr
}
