package bench

import (
	"testing"

	"repro/internal/cycles"
	"repro/internal/sim"
)

// BenchmarkSetupQueue measures the host cost of machine setup, which farm
// points pay before their datapath runs: per op, a fresh 1-core RX machine
// posts its 256-entry RX ring (netstack.Driver.SetupQueue) and is torn
// down.
func BenchmarkSetupQueue(b *testing.B) {
	for _, sys := range []string{SysLinuxStrict, SysIdentityStrict, SysCopy} {
		b.Run(sys, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mach, err := NewMachine(DefaultConfig(sys, RX, 1, 1500))
				if err != nil {
					b.Fatal(err)
				}
				mach.Eng.Spawn("setup", 0, 0, func(p *sim.Proc) { err = mach.Driver.SetupQueue(p, 0) })
				mach.Eng.Run(cycles.FromMillis(1))
				mach.Teardown()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
