package sim

import (
	"reflect"
	"testing"
)

// recSink records every span it receives.
type recSink struct {
	spans []recSpan
}

type recSpan struct {
	path       string
	self       map[string]uint64 // self cycles by tag
	start, end uint64
}

func (s *recSink) SpanEnd(p *Proc, path string, tags []string, self []uint64, start, end uint64) {
	m := map[string]uint64{}
	for i, c := range self {
		if c != 0 {
			m[tags[i]] += c
		}
	}
	s.spans = append(s.spans, recSpan{path, m, start, end})
}

// selfCycles is the span's self summed over tags.
func (sp recSpan) selfCycles() uint64 {
	var sum uint64
	for _, c := range sp.self {
		sum += c
	}
	return sum
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
// cycles exclude its children and keep the tag each cycle was charged
// under, paths nest with slashes, and spans charge nothing beyond what
// Charge/Work already accounted.
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
	for path, want := range map[string]map[string]uint64{
		"unmap/inval": {"inval": 40},
		"unmap":       {"sw": 110},
		"ptes":        {"iommu": 25},
		"copy":        {"copy": 30},
	} {
		if sp := sink.find(t, path); !reflect.DeepEqual(sp.self, want) {
			t.Errorf("%s self = %v, want %v", path, sp.self, want)
		}
	}
	if outer := sink.find(t, "unmap"); outer.end-outer.start != 150 {
		t.Errorf("unmap wall interval = %d, want 150", outer.end-outer.start)
	}
	// Sum of self cycles over all spans equals total busy: nothing double
	// counted, nothing lost.
	var self uint64
	for _, sp := range sink.spans {
		self += sp.selfCycles()
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
		if sp.path == "spin:invq" && sp.selfCycles() > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no spin:invq span with nonzero self cycles; spans: %v", sink.spans)
	}
}

// TestSpanSelfConservesTaggedCycles: every busy cycle lands in exactly
// one span under the tag it was charged with — plain charges, SpinUntil
// and a contended spinlock handoff's busy wake alike — so once every span
// has exited, each tag's self summed over spans equals the procs'
// TaggedCycles for that tag.
func TestSpanSelfConservesTaggedCycles(t *testing.T) {
	e := NewEngine()
	sink := &recSink{}
	e.SetObserver(sink)
	l := NewSpinlock("q", "spin", LockCosts{Uncontended: 4, HandoffBase: 8, HandoffPerWaiter: 2})
	body := func(p *Proc) {
		p.SpanEnter("op")
		p.Charge("sw", 7)
		p.SpanEnter("wait")
		p.SpinUntil("poll", p.Now()+50)
		p.ChargeSpan("ptes", "pt", 11)
		p.SpanExit()
		l.Lock(p)
		p.Work("sw", 100) // hold while the other proc arrives
		l.Unlock(p)
		p.Charge("pt", 3)
		p.SpanExit()
	}
	procs := []*Proc{e.Spawn("a", 0, 0, body), e.Spawn("b", 1, 0, body)}
	e.Run(1 << 30)
	e.Stop()
	if l.Contended == 0 {
		t.Fatal("no contended handoff; the test must exercise the busy wake")
	}
	spans := map[string]uint64{}
	var spin uint64
	for _, sp := range sink.spans {
		for tag, c := range sp.self {
			spans[tag] += c
		}
		if sp.path == "op/spin:q" {
			spin += sp.self["spin"]
		}
	}
	tagged := map[string]uint64{}
	for _, p := range procs {
		for tag, c := range p.Tagged() {
			tagged[tag] += c
		}
	}
	if !reflect.DeepEqual(spans, tagged) {
		t.Errorf("self cycles by tag over spans = %v, TaggedCycles = %v", spans, tagged)
	}
	if spin <= 2*4 {
		t.Errorf("op/spin:q spans hold %d spin cycles, no handoff wait beyond two uncontended acquires", spin)
	}
}
