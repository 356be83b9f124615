package sim

// Span instrumentation: procs can carry a stack of named, nested spans.
// Each busy cycle is credited to the innermost open span under the tag it
// was charged with, and a SpanSink (implemented by internal/obs) receives
// the span's per-tag self cycles when it exits: the path says where the
// cycles went, the tag what they were. The design goal is a zero-overhead
// disabled path — without a sink every span call is a single nil check
// and a charge one length check, no allocation, no clock or cost-model
// interaction — so instrumentation stays compiled into the hot paths
// permanently and the virtual-time results are bit-identical whether
// observability is on or off. Spans never charge cycles; they only
// attribute cycles that Charge/Work/SpinUntil (and the spinlock
// contention model) already account.

// SpanSink receives completed spans from procs. The engine dispatches
// procs one at a time, so implementations need no locking for same-engine
// use.
type SpanSink interface {
	// SpanEnd reports one completed span: its slash-joined hierarchical
	// path ("unmap/inval/inval-wait"), its self cycles — the busy cycles
	// accounted while it was the proc's innermost open span — split by
	// tag (self[i] were charged under tags[i]; self may be shorter than
	// tags), and its wall-clock interval in virtual time. Both slices
	// belong to the proc and change after SpanEnd returns.
	SpanEnd(p *Proc, path string, tags []string, self []uint64, start, end uint64)
}

// spanFrame is one open span on a proc's stack.
type spanFrame struct {
	path  string   // full slash-joined path
	start uint64   // p.clock at enter
	self  []uint64 // busy cycles accounted while innermost, by tag slot
}

// SetObserver installs a span sink on the engine. It must be called before
// Spawn: procs capture the sink at spawn time. A nil sink disables
// observation for subsequently spawned procs.
func (e *Engine) SetObserver(s SpanSink) { e.obs = s }

// Observed reports whether a span sink is attached to this proc. Hot paths
// use it to skip span-name construction when observability is off.
func (p *Proc) Observed() bool { return p.obs != nil }

// SpanEnter opens a span named name, nested inside the proc's currently
// open span (if any). Callers must pair it with SpanExit on the same proc;
// the pairing is positional, like a lock. No-op without a sink, so only an
// observed proc ever has an open span.
func (p *Proc) SpanEnter(name string) {
	if p.obs == nil {
		return
	}
	n := len(p.spans)
	path := name
	if n > 0 {
		path = p.spans[n-1].path + "/" + name
	}
	// Reuse the frame, and its self buffer, that an earlier span left at
	// this depth.
	if n == cap(p.spans) {
		p.spans = append(p.spans, spanFrame{})
	}
	p.spans = p.spans[:n+1]
	f := &p.spans[n]
	f.path, f.start, f.self = path, p.clock, f.self[:0]
}

// SpanExit closes the innermost open span and reports its per-tag self
// cycles to the sink. No-op without a sink.
func (p *Proc) SpanExit() {
	n := len(p.spans) - 1
	if n < 0 {
		return
	}
	f := &p.spans[n]
	p.spans = p.spans[:n]
	p.obs.SpanEnd(p, f.path, p.tagNames, f.self, f.start, p.clock)
}

// ChargeSpan is Charge wrapped in a single-purpose span: the charged
// cycles are attributed to span (self-only, no children). It is the
// one-liner for instrumenting leaf cost sites.
func (p *Proc) ChargeSpan(span, tag string, c uint64) {
	if p.obs == nil {
		p.Charge(tag, c)
		return
	}
	p.SpanEnter(span)
	p.Charge(tag, c)
	p.SpanExit()
}

// WorkSpan is Work (Charge + yield) wrapped in a span.
func (p *Proc) WorkSpan(span, tag string, c uint64) {
	if p.obs == nil {
		p.Work(tag, c)
		return
	}
	p.SpanEnter(span)
	p.Work(tag, c)
	p.SpanExit()
}
