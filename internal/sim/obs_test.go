package sim

import "testing"

// recSink records every span it receives.
type recSink struct {
	spans []recSpan
}

type recSpan struct {
	path                    string
	self, total, start, end uint64
}

func (s *recSink) SpanEnd(p *Proc, path string, self, total, start, end uint64) {
	s.spans = append(s.spans, recSpan{path, self, total, start, end})
}

func (s *recSink) find(t *testing.T, path string) recSpan {
	t.Helper()
	for _, sp := range s.spans {
		if sp.path == path {
			return sp
		}
	}
	t.Fatalf("no span %q recorded (have %v)", path, s.spans)
	return recSpan{}
}

// TestSpanAttribution checks the exactness contract: a parent's self
// cycles exclude its children, paths nest with slashes, and spans charge
// nothing beyond what Charge/Work already accounted.
func TestSpanAttribution(t *testing.T) {
	e := NewEngine()
	sink := &recSink{}
	e.SetObserver(sink)
	var busy uint64
	e.Spawn("w", 0, 0, func(p *Proc) {
		if !p.Observed() {
			t.Error("Observed() = false with a sink installed")
		}
		p.SpanEnter("unmap")
		p.Charge("sw", 100)
		p.SpanEnter("inval")
		p.Charge("inval", 40)
		p.SpanExit()
		p.Charge("sw", 10)
		p.SpanExit()
		p.ChargeSpan("ptes", "iommu", 25)
		p.WorkSpan("copy", "copy", 30)
		busy = p.Busy()
	})
	e.Run(1 << 30)
	e.Stop()

	if busy != 205 {
		t.Fatalf("busy = %d, want 205", busy)
	}
	inner := sink.find(t, "unmap/inval")
	if inner.self != 40 || inner.total != 40 {
		t.Errorf("unmap/inval self/total = %d/%d, want 40/40", inner.self, inner.total)
	}
	outer := sink.find(t, "unmap")
	if outer.self != 110 || outer.total != 150 {
		t.Errorf("unmap self/total = %d/%d, want 110/150", outer.self, outer.total)
	}
	if outer.end-outer.start != 150 {
		t.Errorf("unmap wall interval = %d, want 150", outer.end-outer.start)
	}
	if sp := sink.find(t, "ptes"); sp.self != 25 {
		t.Errorf("ptes self = %d, want 25", sp.self)
	}
	if sp := sink.find(t, "copy"); sp.self != 30 {
		t.Errorf("copy self = %d, want 30", sp.self)
	}
	// Sum of self cycles over all spans equals total busy: nothing double
	// counted, nothing lost.
	var self uint64
	for _, sp := range sink.spans {
		self += sp.self
	}
	if self != busy {
		t.Errorf("sum of self cycles = %d, busy = %d", self, busy)
	}
}

// TestSpansDisabledAreNoOps pins the zero-overhead disabled path: with no
// sink, span calls neither panic nor change accounting, and the
// ChargeSpan/WorkSpan wrappers still charge.
func TestSpansDisabledAreNoOps(t *testing.T) {
	e := NewEngine()
	var busy uint64
	e.Spawn("w", 0, 0, func(p *Proc) {
		if p.Observed() {
			t.Error("Observed() = true with no sink")
		}
		p.SpanEnter("unmap")
		p.ChargeSpan("ptes", "iommu", 25)
		p.WorkSpan("copy", "copy", 30)
		p.SpanExit()
		p.SpanExit() // unbalanced exit must be harmless too
		busy = p.Busy()
	})
	e.Run(1 << 30)
	e.Stop()
	if busy != 55 {
		t.Fatalf("busy = %d, want 55 (wrappers must still charge)", busy)
	}
}

// TestSpinlockEmitsSpinSpan: contended acquisition is attributed to an
// automatic "spin:<name>" span.
func TestSpinlockEmitsSpinSpan(t *testing.T) {
	e := NewEngine()
	sink := &recSink{}
	e.SetObserver(sink)
	l := NewSpinlock("invq", "sw", LockCosts{Uncontended: 4, HandoffBase: 8, HandoffPerWaiter: 2})
	for i := 0; i < 2; i++ {
		e.Spawn("w", i, 0, func(p *Proc) {
			l.Lock(p)
			p.Work("sw", 100)
			l.Unlock(p)
		})
	}
	e.Run(1 << 30)
	e.Stop()
	found := false
	for _, sp := range sink.spans {
		if sp.path == "spin:invq" && sp.self > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no spin:invq span with nonzero self cycles; spans: %v", sink.spans)
	}
}
