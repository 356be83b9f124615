//go:build race

package main

// raceEnabled reports a -race build, whose instrumentation slows the
// probes and hides instrumented frames from the CPU profiler.
const raceEnabled = true
