package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cycles"
	"repro/internal/obs"
)

// profileAt runs one profiled 16-core RX point and returns its profile.
func profileAt(t *testing.T, sys string, msgSize int) *obs.Profile {
	t.Helper()
	cfg := DefaultConfig(sys, RX, 16, msgSize)
	cfg.WindowMs = 2
	cfg.Obs = obs.New(false)
	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s/%d: %v", sys, msgSize, err)
	}
	if r.Profile == nil {
		t.Fatalf("%s/%d: no profile despite Config.Obs", sys, msgSize)
	}
	return r.Profile
}

// TestCycleCoverage is the tentpole acceptance bar: on the Figure 6 and
// Figure 8a workload points, named spans must attribute at least 95% of
// every system's busy cycles.
func TestCycleCoverage(t *testing.T) {
	for _, msg := range []int{1500, 65536} {
		for _, sys := range AllSystems {
			msg, sys := msg, sys
			t.Run(fmt.Sprintf("%s/%d", sys, msg), func(t *testing.T) {
				t.Parallel()
				p := profileAt(t, sys, msg)
				if p.TotalBusy == 0 {
					t.Fatal("no busy cycles recorded")
				}
				if cov := p.Coverage(); cov < 0.95 {
					t.Errorf("span coverage %.1f%% < 95%% (attributed %d of %d busy cycles)",
						100*cov, p.Attributed(), p.TotalBusy)
				}
			})
		}
	}
}

// TestCycleBreakdownOrdering checks the profile agrees with the paper's
// breakdown story at the 16-core MTU point: strict and identity+ pay for
// IOTLB invalidation and the lock spinning it causes, while the copy
// strategy pays for copies and shadow-pool management instead.
func TestCycleBreakdownOrdering(t *testing.T) {
	for _, sys := range []string{SysLinuxStrict, SysIdentityStrict} {
		sys := sys
		t.Run(sys, func(t *testing.T) {
			t.Parallel()
			p := profileAt(t, sys, 1500)
			inval := p.Component(cycles.TagInvalidate) + p.Component(cycles.TagSpinlock)
			for _, other := range [][]string{
				{cycles.TagMemcpy, cycles.TagCopyMgmt}, {cycles.TagIOVA}, {cycles.TagPTMgmt},
			} {
				var oc uint64
				for _, c := range other {
					oc += p.Component(c)
				}
				if inval <= oc {
					t.Errorf("invalidate iotlb+spinlock (%d) does not dominate %v (%d)", inval, other, oc)
				}
			}
		})
	}
	t.Run(SysCopy, func(t *testing.T) {
		t.Parallel()
		p := profileAt(t, SysCopy, 1500)
		cp := p.Component(cycles.TagMemcpy) + p.Component(cycles.TagCopyMgmt)
		for _, other := range []string{cycles.TagInvalidate, cycles.TagSpinlock, cycles.TagIOVA, cycles.TagPTMgmt} {
			if oc := p.Component(other); cp <= oc {
				t.Errorf("memcpy+copy mgmt (%d) does not dominate %s (%d)", cp, other, oc)
			}
		}
		if inv := p.Component(cycles.TagInvalidate); inv != 0 {
			t.Errorf("copy strategy attributed %d invalidation cycles; shadowing never invalidates", inv)
		}
	})
}

// TestProfileConservesTaggedCycles: the profile's component split is the
// figures' tag accounting at another granularity. On every design's
// stream points (RX 1500 B and 64 KiB on 16 cores, TX and RR at 64 KiB on
// one) and memcached, each component's span total is at most the procs'
// TaggedCycles, and the shortfalls — what spans still open at the
// window's end held — sum to exactly TotalBusy - Attributed. The DMA-API
// microbenchmark runs to completion, so there every component is exact,
// on every extended design.
func TestProfileConservesTaggedCycles(t *testing.T) {
	type point struct {
		name  string
		cfg   Config
		run   func(*Machine, Config) (*obs.Profile, error)
		exact bool
	}
	stream := func(run func(*Machine, Config) (Result, error)) func(*Machine, Config) (*obs.Profile, error) {
		return func(m *Machine, cfg Config) (*obs.Profile, error) {
			r, err := run(m, cfg)
			return r.Profile, err
		}
	}
	var pts []point
	for _, sys := range AllSystems {
		for _, p := range []struct {
			dir        Direction
			cores, msg int
			run        func(*Machine, Config) (Result, error)
		}{{RX, 16, 1500, runRx}, {RX, 16, 65536, runRx}, {TX, 1, 65536, runTx}, {RR, 1, 65536, runRR}} {
			pts = append(pts, point{fmt.Sprintf("%s/%v-%dx%d", sys, p.dir, p.cores, p.msg),
				DefaultConfig(sys, p.dir, p.cores, p.msg), stream(p.run), false})
		}
		pts = append(pts, point{sys + "/memcached", DefaultConfig(sys, RX, 16, 1024),
			func(m *Machine, cfg Config) (*obs.Profile, error) {
				_, p, err := memcached(m, cfg)
				return p, err
			}, false})
	}
	for _, sys := range ExtendedSystems {
		pat := MicroPatterns[0]
		cfg := DefaultConfig(sys, RX, 1, pat.Sizes[0])
		cfg.NoHint = true
		pts = append(pts, point{sys + "/micro", cfg, func(m *Machine, cfg Config) (*obs.Profile, error) {
			_, p, err := micro(m, cfg.System, pat, 2000)
			return p, err
		}, true})
	}
	for _, pt := range pts {
		pt := pt
		t.Run(pt.name, func(t *testing.T) {
			t.Parallel()
			cfg := pt.cfg
			cfg.WindowMs = 1
			cfg.Obs = obs.New(false)
			mach, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p, err := pt.run(mach, cfg)
			// Read everything after Teardown, as the runners' callers do:
			// its unwinding exits the open spans, which must not reach p.
			mach.Teardown()
			if err != nil {
				t.Fatal(err)
			}
			tagged := map[string]uint64{}
			for _, pr := range mach.Eng.Procs() {
				for tag, c := range pr.Tagged() {
					tagged[tag] += c
				}
			}
			var short uint64
			for tag, c := range tagged {
				if got := p.Component(tag); got > c {
					t.Errorf("%s: spans hold %d cycles, the procs charged %d", tag, got, c)
				} else {
					short += c - got
				}
			}
			// Equal sums also mean no span holds a tag no proc charged,
			// and that the machine's procs are the ones TotalBusy counts.
			if want := p.TotalBusy - p.Attributed(); short != want {
				t.Errorf("component shortfalls sum to %d, TotalBusy - Attributed = %d", short, want)
			}
			if pt.exact && short != 0 {
				t.Errorf("the microbenchmark ran to completion, yet components are %d cycles short", short)
			}
		})
	}
}

// TestCycleReportTables exercises the -cyclereport table builder end to
// end: five tables over their default system sets, every column at the
// coverage floor except those with no busy cycles (no-iommu's
// microbenchmark column: map and unmap are free without an IOMMU).
func TestCycleReportTables(t *testing.T) {
	tables, err := CycleReport(Options{WindowMs: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name    string
		systems int
	}{
		{"cycles-mtu", len(AllSystems)}, {"cycles-64k", len(AllSystems)},
		{"cycles-rr", len(AllSystems)}, {"cycles-kv", len(FigureSystems)},
		{"cycles-micro", len(ExtendedSystems)},
	}
	if len(tables) != len(want) {
		t.Fatalf("want %d cycle tables, got %d", len(want), len(tables))
	}
	for i, tbl := range tables {
		if tbl.Name != want[i].name || len(tbl.Series) != want[i].systems || len(tbl.Rows) < 3 {
			t.Errorf("table %d: %s with %d rows, %d series; want %s with %d series",
				i, tbl.Name, len(tbl.Rows), len(tbl.Series), want[i].name, want[i].systems)
		}
		for _, s := range tbl.Series {
			m := s.Points[0].Metrics
			if m["busy_mcycles"] == 0 {
				continue
			}
			if m["coverage"] < 0.95 {
				t.Errorf("%s/%s: coverage %.3f < 0.95", tbl.Name, s.System, m["coverage"])
			}
		}
	}
}

// TestSelectionTraceFollowsExperiments checks which machine -tracefile
// records, from the trace's core threads and top-level span names:
// Figure 10 records the single-core RR server (which transmits), Figure
// 11 the 16 memcached procs, and a selection with no traced machine of its
// own (fig3) the 16-core strict RX machine.
func TestSelectionTraceFollowsExperiments(t *testing.T) {
	for _, tc := range []struct {
		sections []string
		threads  int
		has, not string // top-level span names
	}{
		{[]string{"fig10", "fig3"}, 1, "tx", "kv"},
		{[]string{"fig11"}, 16, "kv", "unmap"},
		{[]string{"fig3"}, 16, "rx", "tx"},
	} {
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := WriteSelectionTrace(tc.sections, 0.5, path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var f struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Ph   string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &f); err != nil {
			t.Fatal(err)
		}
		threads := 0
		spans := map[string]bool{}
		for _, ev := range f.TraceEvents {
			switch {
			case ev.Ph == "M" && ev.Name == "thread_name":
				threads++
			case ev.Ph == "X":
				spans[strings.SplitN(ev.Name, "/", 2)[0]] = true
			}
		}
		if threads != tc.threads || !spans[tc.has] || spans[tc.not] {
			t.Errorf("%v: %d core threads, spans %v; want %d threads, a %q span and no %q span",
				tc.sections, threads, spans, tc.threads, tc.has, tc.not)
		}
	}
}

// TestWriteTraceChromeSchema validates the -tracefile output end to end:
// the produced file must be Chrome trace-event JSON that Perfetto accepts —
// an object with a traceEvents array whose entries carry the phase-specific
// required fields, IOMMU events with their typed args.
func TestWriteTraceChromeSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := WriteSelectionTrace([]string{"apimicro"}, 1, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents     []map[string]interface{} `json:"traceEvents"`
		DisplayTimeUnit string                   `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want \"ms\"", f.DisplayTimeUnit)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	var slices, iommuEvents, threadNames int
	for i, ev := range f.TraceEvents {
		name, _ := ev["name"].(string)
		ph, _ := ev["ph"].(string)
		if name == "" || ph == "" {
			t.Fatalf("event %d missing name/ph: %v", i, ev)
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Fatalf("event %d missing numeric ts: %v", i, ev)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event %d missing numeric pid: %v", i, ev)
		}
		switch ph {
		case "X":
			slices++
			if dur, ok := ev["dur"].(float64); ok && dur < 0 {
				t.Fatalf("event %d negative dur: %v", i, ev)
			}
		case "i":
			if s, _ := ev["s"].(string); s != "t" && s != "p" {
				t.Fatalf("event %d instant without valid scope: %v", i, ev)
			}
			if c, _ := ev["cat"].(string); c == "iommu" {
				iommuEvents++
				args, _ := ev["args"].(map[string]interface{})
				for _, k := range []string{"dev", "iova", "phys", "size"} {
					if _, ok := args[k].(float64); !ok {
						t.Fatalf("event %d missing numeric %s arg: %v", i, k, ev)
					}
				}
				if m, _ := args["msg"].(string); m == "" {
					t.Fatalf("event %d missing msg arg: %v", i, ev)
				}
			}
		case "M":
			if name == "thread_name" {
				threadNames++
			}
		default:
			t.Fatalf("event %d unexpected phase %q", i, ph)
		}
	}
	if slices == 0 {
		t.Error("no span slices recorded")
	}
	if threadNames == 0 {
		t.Error("no thread_name metadata (core tracks unnamed)")
	}
	if iommuEvents == 0 {
		t.Error("no IOMMU events exported (the strict micro loop maps, unmaps and invalidates)")
	}
}

// TestProfileAbsentByDefault: without Config.Obs the runner must not
// attach a profile (and, by the baseline gate, must not change behavior).
func TestProfileAbsentByDefault(t *testing.T) {
	cfg := DefaultConfig(SysNoIOMMU, RX, 1, 1500)
	cfg.WindowMs = 1
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Profile != nil {
		t.Error("Profile set without an observer")
	}
}

// TestObservingNeverChangesResults: spans never charge cycles and the
// IOMMU's event hook only reads, so a run with a profiler and a timeline
// recorder installed produces exactly the results of the same run
// without them. Every design at the Figure 6 point, plus strict RR,
// deferred TX, strict memcached and the strict DMA-API micro loop.
func TestObservingNeverChangesResults(t *testing.T) {
	type outcome struct {
		res  any
		prof *obs.Profile
	}
	type point struct {
		name string
		run  func(o *obs.Observer) (outcome, error)
	}
	stream := func(sys string, dir Direction, cores, msg int) func(o *obs.Observer) (outcome, error) {
		return func(o *obs.Observer) (outcome, error) {
			cfg := DefaultConfig(sys, dir, cores, msg)
			cfg.WindowMs = 1
			cfg.Obs = o
			r, err := Run(cfg)
			prof := r.Profile
			r.Profile, r.Config.Obs = nil, nil
			return outcome{r, prof}, err
		}
	}
	var pts []point
	for _, d := range Designs {
		pts = append(pts, point{d.Name + "/rx-16x1500", stream(d.Name, RX, 16, 1500)})
	}
	pts = append(pts,
		point{"strict/rr-1x64k", stream(SysLinuxStrict, RR, 1, 65536)},
		point{"defer/tx-4x64k", stream(SysLinuxDefer, TX, 4, 65536)},
		point{"strict/memcached", func(o *obs.Observer) (outcome, error) {
			r, p, err := runMemcached(SysLinuxStrict, 16, 1, o)
			return outcome{r, p}, err
		}},
		point{"strict/micro", func(o *obs.Observer) (outcome, error) {
			r, p, err := runMicro(SysLinuxStrict, MicroPatterns[0], 2000, o)
			return outcome{r, p}, err
		}})
	for _, pt := range pts {
		pt := pt
		t.Run(pt.name, func(t *testing.T) {
			t.Parallel()
			plain, err := pt.run(nil)
			if err != nil {
				t.Fatal(err)
			}
			observed, err := pt.run(obs.New(true))
			if err != nil {
				t.Fatal(err)
			}
			if observed.prof == nil || len(observed.prof.Spans) == 0 {
				t.Fatal("the observed run recorded no spans")
			}
			if !reflect.DeepEqual(plain.res, observed.res) {
				t.Errorf("observing changed the result:\nplain    %+v\nobserved %+v", plain.res, observed.res)
			}
		})
	}
}
