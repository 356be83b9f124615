package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/mem"
)

// busyCopy keeps one goroutine inside repro/internal/mem for d.
func busyCopy(t *testing.T, d time.Duration) {
	m := mem.New(1)
	src, err := m.AllocPages(0, 16)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := m.AllocPages(0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fill(mem.Buf{Addr: src, Size: 16 * mem.PageSize}, 1); err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 100; i++ {
			if err := m.Copy(dst, src, 16*mem.PageSize); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// recordProfile profiles a stretch of mem.Copy calls.
func recordProfile(t *testing.T) []byte {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	busyCopy(t, 400*time.Millisecond)
	pprof.StopCPUProfile()
	return buf.Bytes()
}

func TestProfileReaderAndAttribution(t *testing.T) {
	p, err := parseProfile(recordProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.sampleTypes) == 0 || !strings.HasPrefix(p.sampleTypes[len(p.sampleTypes)-1], "cpu/") {
		t.Fatalf("sample types %v, want a cpu type", p.sampleTypes)
	}
	if len(p.samples) < 10 {
		t.Fatalf("only %d samples in 400ms of busy work", len(p.samples))
	}
	sawCopy := false
	for _, s := range p.samples {
		for _, loc := range s.locs {
			for _, fn := range p.locations[loc] {
				if fn == "repro/internal/mem.(*Memory).Copy" {
					sawCopy = true
				}
			}
		}
	}
	if !sawCopy {
		t.Error("no sample names repro/internal/mem.(*Memory).Copy")
	}

	acc := map[string]int64{}
	p.attribute(acc)
	shares := cpuShares(acc)
	if len(shares) != len(cpuBuckets) {
		t.Fatalf("%d shares for %d buckets", len(shares), len(cpuBuckets))
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if sum < 99.999 || sum > 100.001 {
		t.Errorf("shares sum to %v, want 100", sum)
	}
	// Under -race the instrumentation's own frames hide most samples' Go
	// stacks, so only the order of the layers is checked there.
	if shares["mem.cpu_share"] < 50 && !raceEnabled {
		t.Errorf("mem.cpu_share = %.1f%% for a loop of mem.Copy, want most of the profile", shares["mem.cpu_share"])
	}
	for _, l := range cpuLayers {
		if l != "mem" && shares[l+".cpu_share"] >= shares["mem.cpu_share"] {
			t.Errorf("%s.cpu_share %.1f%% >= mem.cpu_share %.1f%% for a loop of mem.Copy", l, shares[l+".cpu_share"], shares["mem.cpu_share"])
		}
	}
}

func TestBucketOf(t *testing.T) {
	p := &profile{locations: map[uint64][]string{
		1: {"runtime.memmove", "repro/internal/mem.(*Memory).Copy"},
		2: {"repro/internal/sim.(*Proc).Work"},
		3: {"repro/internal/nic.(*Ring[go.shape.struct { Addr repro/internal/iommu.IOVA }]).Post"},
		4: {"repro/internal/obs.(*Registry).Snapshot"},
		5: {"runtime.scanobject"},
		6: {"runtime.gcBgMarkWorker"},
		7: {"main.main"},
	}}
	for _, c := range []struct {
		locs []uint64
		want string
	}{
		{[]uint64{1, 2}, "mem"}, // innermost repro/internal frame, through an inlined runtime frame
		{[]uint64{2, 1}, "sim"},
		{[]uint64{3, 2}, "nic"}, // generic shapes name other packages
		{[]uint64{4, 2}, "other"},
		{[]uint64{5, 6}, "gc"},
		{[]uint64{5, 7}, "runtime"},
	} {
		if got := p.bucketOf(sample{locs: c.locs}); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.locs, got, c.want)
		}
	}
}

func TestParseProfileRejectsMalformedInput(t *testing.T) {
	for _, in := range [][]byte{
		{0x0a, 0xff},             // field 1, truncated length
		{0x12, 0x02, 0x0a, 0x80}, // sample with a truncated varint inside
		{0x0b},                   // wire type 3 (groups) is not protobuf 3
		{0x1f, 0x8b, 0x00},       // truncated gzip
		{0x32, 0x01, 'x', 0x0a, 0x02, 0x08, 0x05}, // sample type names string 5 of 1
	} {
		if _, err := parseProfile(in); err == nil {
			t.Errorf("parseProfile(% x) accepted malformed input", in)
		}
	}
}
