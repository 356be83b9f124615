package dmafuzz

import (
	"strings"
	"testing"
)

// maxFuzzOps bounds a fuzzed trace, so one input stays a few ms of host
// time per backend.
const maxFuzzOps = 128

// probeTraces are hand-written traces for the three probe classes the
// campaign payloads exercise: a stale IOVA after unmap (before and after
// a quiesce), a co-located kmalloc sibling through a live sub-page
// mapping, and a never-mapped page.
var probeTraces = []*Trace{
	{Seed: 101, Ops: []Op{
		{Kind: OpMap, Slot: 0, Size: 1500, Dir: 2},
		{Kind: OpDevWrite, Slot: 0, Len: 64},
		{Kind: OpUnmap, Slot: 0},
		{Kind: OpProbeStale, Slot: 0},
		{Kind: OpQuiesce},
		{Kind: OpProbeStale, Slot: 0},
	}},
	{Seed: 102, Ops: []Op{
		{Kind: OpMap, Slot: 1, Size: 256, Dir: 3, Sib: true},
		{Kind: OpProbeSubPage, Slot: 1},
		{Kind: OpUnmap, Slot: 1},
	}},
	{Seed: 103, Ops: []Op{{Kind: OpProbeArbitrary}}},
}

// traceFailures decodes a fuzzed trace and runs it through every
// backend under plan, returning every oracle failure. Undecodable and
// oversized inputs are not traces and return nothing.
func traceFailures(data []byte, plan FaultPlan) ([]string, error) {
	tr, err := DecodeTrace(data)
	if err != nil || len(tr.Ops) > maxFuzzOps {
		return nil, nil
	}
	rep, err := RunTrace(tr, nil, plan)
	if err != nil {
		return nil, err
	}
	return rep.Failures(), nil
}

// FuzzDeviceDMA emulates the device side of DMA, the input a malicious
// device controls (DICE's idea, aimed here at the host): the fuzzer
// drives maps, device reads and writes and stale, sub-page and
// arbitrary probes through every backend, and any oracle failure fails.
// Each backend is held to the profile bench.Designs declares for it, so
// under copy and strict no probe may ever succeed.
func FuzzDeviceDMA(f *testing.F) {
	f.Add(Generate(1, 16).Encode())
	f.Add(Generate(2, 64).Encode())
	for _, tr := range probeTraces {
		f.Add(tr.Encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		failures, err := traceFailures(data, FaultPlan{})
		if err != nil {
			t.Fatal(err)
		}
		if len(failures) > 0 {
			t.Fatalf("oracle failures:\n%s", strings.Join(failures, "\n"))
		}
	})
}

// TestFuzzDeviceDMACatchesSkipInval: the fuzz target's own seeds fail at
// once when strict unmap skips invalidation, through the stale probe or
// the epilogue's probes of every formerly used IOVA.
func TestFuzzDeviceDMACatchesSkipInval(t *testing.T) {
	for _, data := range [][]byte{Generate(1, 16).Encode(), probeTraces[0].Encode()} {
		failures, err := traceFailures(data, FaultPlan{SkipInval: true})
		if err != nil {
			t.Fatal(err)
		}
		caught := false
		for _, f := range failures {
			caught = caught || strings.HasPrefix(f, "strict: security: ") && strings.Contains(f, "reached OS memory")
		}
		if !caught {
			t.Errorf("skipinval not caught; failures: %v", failures)
		}
	}
}
