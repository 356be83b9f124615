package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/iommu"
	"repro/internal/sim"
)

// TestSpanAttribution checks the core invariant: exclusive (self) cycles
// are disjoint across nested spans, each split by the component it was
// charged under, and sum to the proc's busy cycles.
func TestSpanAttribution(t *testing.T) {
	eng := sim.NewEngine()
	o := New(false)
	eng.SetObserver(o)
	eng.Spawn("w", 0, 0, func(p *sim.Proc) {
		p.SpanEnter("map")
		p.Charge("other", 10) // map self
		p.SpanEnter("iova-alloc")
		p.Charge("iova", 100)
		p.SpanExit()
		p.SpanEnter("ptes")
		p.Charge("pt", 200)
		p.SpanExit()
		p.Charge("other", 5) // map self again
		p.SpanExit()
	})
	eng.Run(1 << 40)

	pf := o.Prof.Snapshot()
	got := map[string]SpanStat{}
	for _, s := range pf.Spans {
		got[s.Path] = s
	}
	for _, want := range []SpanStat{
		{Path: "map/iova-alloc", Count: 1, Self: 100, ByComponent: map[string]uint64{"iova": 100}},
		{Path: "map/ptes", Count: 1, Self: 200, ByComponent: map[string]uint64{"pt": 200}},
		{Path: "map", Count: 1, Self: 15, ByComponent: map[string]uint64{"other": 15}},
	} {
		if s := got[want.Path]; !reflect.DeepEqual(s, want) {
			t.Errorf("%s = %+v, want %+v", want.Path, s, want)
		}
	}
	if a := pf.Attributed(); a != 315 {
		t.Errorf("attributed = %d, want 315 (no double counting)", a)
	}
	if c := pf.Component("other"); c != 15 {
		t.Errorf("component other = %d, want 15", c)
	}
}

// TestSnapshotCountsExitedSpansOnly: a span still open when the snapshot
// is taken counts nothing in it, and one that exits afterwards — as a
// proc's deferred SpanExit does while Engine.Stop unwinds it — leaves the
// snapshot unchanged.
func TestSnapshotCountsExitedSpansOnly(t *testing.T) {
	eng := sim.NewEngine()
	o := New(false)
	eng.SetObserver(o)
	eng.Spawn("w", 0, 0, func(p *sim.Proc) {
		p.ChargeSpan("rx", "other", 10)
		p.SpanEnter("rx")
		defer p.SpanExit()
		p.Charge("other", 5)
		p.Sleep(1 << 20) // still open when the window ends
	})
	eng.Run(100)
	snap := o.Prof.Snapshot()
	eng.Stop()
	want := []SpanStat{{Path: "rx", Count: 1, Self: 10, ByComponent: map[string]uint64{"other": 10}}}
	if !reflect.DeepEqual(snap.Spans, want) {
		t.Errorf("snapshot = %+v, want %+v", snap.Spans, want)
	}
	if live := o.Prof.Snapshot().Spans; len(live) != 1 || live[0].Count != 2 || live[0].ByComponent["other"] != 15 {
		t.Errorf("after Stop the profiler holds %+v, want the unwound span counted", live)
	}
}

// TestSpanCapturesSpinWait checks that cycles accrued by a contended lock
// handoff (busy-wake, not Charge) land inside the enclosing span — this is
// what makes "spin:<lock>" spans measure real contention.
func TestSpanCapturesSpinWait(t *testing.T) {
	eng := sim.NewEngine()
	o := New(false)
	eng.SetObserver(o)
	costs := sim.LockCosts{Uncontended: 10, HandoffBase: 50, HandoffPerWaiter: 20}
	l := sim.NewSpinlock("test", "spin", costs)
	eng.Spawn("a", 0, 0, func(p *sim.Proc) {
		l.Lock(p)
		p.Work("other", 1000) // hold while b arrives
		l.Unlock(p)
	})
	eng.Spawn("b", 1, 0, func(p *sim.Proc) {
		p.Charge("other", 1) // desync so b contends
		l.Lock(p)
		l.Unlock(p)
	})
	eng.Run(1 << 40)

	pf := o.Prof.Snapshot()
	var spin SpanStat
	for _, s := range pf.Spans {
		if s.Path == "spin:test" {
			spin = s
		}
	}
	if spin.Count != 2 {
		t.Fatalf("spin:test count = %d, want 2", spin.Count)
	}
	// a: uncontended acquire (10). b: spun from clock 1 until a's unlock
	// at 1010, plus the handoff penalty 50+20 = 1079 busy cycles.
	want := uint64(10 + 1009 + 70)
	if spin.Self != want || spin.ByComponent["spin"] != want {
		t.Errorf("spin:test self = %d by component %v, want %d under the lock's tag", spin.Self, spin.ByComponent, want)
	}
}

// TestDisabledPathIsInert: without an observer, span calls must not touch
// clocks or accounting at all.
func TestDisabledPathIsInert(t *testing.T) {
	eng := sim.NewEngine()
	var busy, clock uint64
	eng.Spawn("w", 0, 0, func(p *sim.Proc) {
		p.SpanEnter("x")
		p.ChargeSpan("y", "tag", 7)
		p.SpanExit()
		p.SpanExit() // extra exits must be harmless
		busy, clock = p.Busy(), p.Now()
	})
	eng.Run(1 << 40)
	if busy != 7 || clock != 7 {
		t.Errorf("busy=%d clock=%d, want 7/7 (spans must not charge)", busy, clock)
	}
	if !testingProcUnobserved(eng) {
		t.Error("proc reports Observed without a sink")
	}
}

func testingProcUnobserved(e *sim.Engine) bool {
	for _, p := range e.Procs() {
		if p.Observed() {
			return false
		}
	}
	return true
}

// TestChromeTraceSchema validates the exported JSON against the trace-event
// format contract: traceEvents array, ph/ts/pid/tid on every event, dur on
// complete events, metadata naming the tracks, and IOMMU events as
// instants with typed args.
func TestChromeTraceSchema(t *testing.T) {
	eng := sim.NewEngine()
	o := New(true)
	eng.SetObserver(o)
	o.Rec.IOMMUEvent(iommu.Event{At: 480, Kind: iommu.EventFault, Dev: 3, IOVA: 0x5000,
		Perm: iommu.PermWrite, Reason: "not present"})
	eng.Spawn("w", 2, 0, func(p *sim.Proc) {
		p.SpanEnter("rx")
		p.Charge("other", 240)
		p.SpanExit()
	})
	eng.Run(1 << 40)

	var buf bytes.Buffer
	if err := o.Rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	var sawSlice, sawThreadName, sawIOMMU bool
	for _, ev := range f.TraceEvents {
		ph, _ := ev["ph"].(string)
		if ph == "" {
			t.Fatalf("event missing ph: %v", ev)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event missing pid: %v", ev)
		}
		if _, ok := ev["tid"].(float64); !ok {
			t.Fatalf("event missing tid: %v", ev)
		}
		if _, ok := ev["name"].(string); !ok {
			t.Fatalf("event missing name: %v", ev)
		}
		switch ph {
		case "X":
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("complete event missing dur: %v", ev)
			}
			if ev["name"] == "rx" && ev["tid"].(float64) == 2 {
				sawSlice = true
			}
		case "i":
			if s, _ := ev["s"].(string); s == "" {
				t.Fatalf("instant missing scope: %v", ev)
			}
			args, _ := ev["args"].(map[string]interface{})
			if ev["cat"] == "iommu" && ev["name"] == "fault" && ev["pid"] == 1.0 && ev["ts"] == 0.2 &&
				args["dev"] == 3.0 && args["iova"] == float64(0x5000) && args["phys"] == 0.0 &&
				args["size"] == 0.0 && args["msg"] == "dev 3 iova 0x5000 want w: not present" {
				sawIOMMU = true
			}
		case "M":
			if ev["name"] == "thread_name" {
				sawThreadName = true
			}
		}
	}
	if !sawSlice || !sawThreadName || !sawIOMMU {
		t.Errorf("missing event kinds: slice=%v meta=%v iommu=%v\n%s",
			sawSlice, sawThreadName, sawIOMMU, buf.String())
	}
	// duration of the 240-cycle span at 2.4 GHz = 0.1 µs
	for _, ev := range f.TraceEvents {
		if ev["ph"] == "X" && ev["name"] == "rx" {
			if d := ev["dur"].(float64); d < 0.099 || d > 0.101 {
				t.Errorf("dur = %v µs, want 0.1", d)
			}
		}
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("iommu.iotlb.hits", 10)
	r.Counter("iommu.iotlb.hits", 15)
	r.Gauge("shadow.pool.bytes", 4096)
	r.Observe("lat.us", 1)
	r.Observe("lat.us", 3)
	s := r.Snapshot()
	if s.Counters["iommu.iotlb.hits"] != 15 {
		t.Errorf("counter = %d", s.Counters["iommu.iotlb.hits"])
	}
	if s.Gauges["shadow.pool.bytes"] != 4096 {
		t.Errorf("gauge = %v", s.Gauges["shadow.pool.bytes"])
	}
	if d := s.Distributions["lat.us"]; d.Count != 2 || d.Mean != 2 {
		t.Errorf("dist = %+v", d)
	}
}

// TestRecorderCap: the recorder drops, not grows, past its bound, for
// slices and IOMMU events alike.
func TestRecorderCap(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.slice("s", 0, uint64(i), uint64(i+1))
		r.IOMMUEvent(iommu.Event{At: uint64(i)})
	}
	if len(r.slices) != 2 || len(r.events) != 2 || r.Dropped != 6 {
		t.Errorf("slices=%d events=%d dropped=%d", len(r.slices), len(r.events), r.Dropped)
	}
	if r.events[1].At != 1 {
		t.Errorf("kept events %v, want the first two", r.events)
	}
}
