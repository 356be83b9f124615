package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles profiles the host process, not the simulation: it begins
// CPU profiling to cpuPath (if non-empty) and arranges for a heap profile
// to be written to memPath (if non-empty) when the returned stop function
// runs. It backs the tools' -cpuprofile and reproduce's -memprofile (see
// "Performance & profiling" in README.md). Either path may be empty; stop
// is always safe to call exactly once, typically via defer.
func StartProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "prof: %v\n", err)
				return
			}
			runtime.GC() // materialize up-to-date allocation stats
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "prof: %v\n", err)
			}
			f.Close()
		}
	}, nil
}
