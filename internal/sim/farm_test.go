package sim_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/sim"
)

// TestCoroutinePanicThroughFarmIsPanic: a proc panic in a farm point
// comes back from Farm.Map as an IsPanic error carrying the original
// value, which the daemon's retry policy relies on. Each point stops its
// engine in a deferred call, as machine teardown would.
func TestCoroutinePanicThroughFarmIsPanic(t *testing.T) {
	farm := bench.NewFarm(2)
	defer farm.Close()
	err := farm.Map(2, func(i int) error {
		e := sim.NewEngine()
		defer e.Stop()
		e.Spawn("bystander", 0, 0, func(p *sim.Proc) {
			for {
				p.Work("w", 10)
			}
		})
		e.Spawn("bug", 1, 0, func(p *sim.Proc) {
			p.Work("w", 25)
			panic(fmt.Sprintf("proc bug in point %d", i))
		})
		e.Run(1000)
		return nil
	})
	if !bench.IsPanic(err) {
		t.Fatalf("Farm.Map error %v is not IsPanic", err)
	}
	for i := 0; i < 2; i++ {
		if want := fmt.Sprintf("proc bug in point %d", i); !strings.Contains(err.Error(), want) {
			t.Errorf("Farm.Map error lacks %q: %v", want, err)
		}
	}
}
