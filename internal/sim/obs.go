package sim

// Span instrumentation: procs can carry a stack of named, nested spans
// whose busy-cycle consumption is reported to a SpanSink (implemented by
// internal/obs). The design goal is a zero-overhead disabled path — when no
// sink is installed every span call is a single nil check, no allocation,
// no clock or cost-model interaction — so instrumentation stays compiled
// into the hot paths permanently and the virtual-time results are
// bit-identical whether observability is on or off. Spans never charge
// cycles; they only attribute cycles that Charge/Work/SpinUntil (and the
// spinlock contention model) already account.

// SpanSink receives completed spans from procs. The engine dispatches
// procs one at a time, so implementations need no locking for same-engine
// use.
type SpanSink interface {
	// SpanEnd reports one completed span: its slash-joined hierarchical
	// path ("unmap/inval/inval-wait"), the busy cycles attributed
	// exclusively to it (self) and inclusively (total, self plus
	// children), and its wall-clock interval in virtual time.
	SpanEnd(p *Proc, path string, self, total, start, end uint64)
}

// spanFrame is one open span on a proc's stack.
type spanFrame struct {
	path  string // full slash-joined path
	start uint64 // p.clock at enter
	busy  uint64 // p.busy at enter
	child uint64 // busy cycles consumed by already-completed children
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
// the pairing is positional, like a lock. No-op without a sink.
func (p *Proc) SpanEnter(name string) {
	if p.obs == nil {
		return
	}
	path := name
	if n := len(p.spans); n > 0 {
		path = p.spans[n-1].path + "/" + name
	}
	p.spans = append(p.spans, spanFrame{path: path, start: p.clock, busy: p.busy})
}

// SpanExit closes the innermost open span, attributing the busy cycles
// accumulated since SpanEnter (minus those claimed by nested children) to
// it, and reports it to the sink. No-op without a sink.
func (p *Proc) SpanExit() {
	if p.obs == nil || len(p.spans) == 0 {
		return
	}
	n := len(p.spans) - 1
	f := p.spans[n]
	p.spans = p.spans[:n]
	total := p.busy - f.busy
	self := total - f.child
	if n > 0 {
		p.spans[n-1].child += total
	}
	p.obs.SpanEnd(p, f.path, self, total, f.start, p.clock)
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
