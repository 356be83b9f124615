package iommu

import (
	"fmt"

	"repro/internal/mem"
)

// EventKind says what an Event records.
type EventKind uint8

// Event kinds. Each belongs to one of four categories (Category): map,
// unmap, inval or fault.
const (
	EventMap          EventKind = iota // mapping installed: IOVA, Phys, Size, Perm
	EventUnmap                         // mapping cleared: IOVA, Size
	EventFault                         // DMA blocked: IOVA, Perm (wanted), Reason
	EventBlock                         // device quarantined
	EventUnblock                       // device readmitted
	EventDetach                        // device hot-unplugged
	EventWipe                          // domain wiped: Arg pages
	EventInval                         // invalidation submitted: Arg is its completion time
	EventInvalTimeout                  // wait timed out (ITE): Arg is the pending completion time
	EventInvalRecover                  // queue drained, global invalidation
)

var eventCategory = [...]string{
	EventMap:          "map",
	EventUnmap:        "unmap",
	EventFault:        "fault",
	EventBlock:        "fault",
	EventUnblock:      "fault",
	EventDetach:       "unmap",
	EventWipe:         "unmap",
	EventInval:        "inval",
	EventInvalTimeout: "inval",
	EventInvalRecover: "inval",
}

// Category returns the kind's category: "map", "unmap", "inval" or
// "fault".
func (k EventKind) Category() string { return eventCategory[k] }

// Event is one IOMMU event, as delivered to IOMMU.OnEvent. Fields a kind
// does not use are zero.
type Event struct {
	At     uint64 // virtual time, cycles
	Kind   EventKind
	Dev    DeviceID
	IOVA   IOVA
	Phys   mem.Phys
	Size   int
	Perm   Perm
	Reason string
	Arg    uint64 // completion time (invalidations) or page count (wipes)
}

// String renders the event's detail the way the intel-iommu tracepoints
// would, e.g. "dev 1 iova 0x9000 size 100".
func (e Event) String() string {
	switch e.Kind {
	case EventMap:
		return fmt.Sprintf("dev %d iova %#x -> phys %#x size %d perm %s",
			e.Dev, uint64(e.IOVA), uint64(e.Phys), e.Size, e.Perm)
	case EventUnmap:
		return fmt.Sprintf("dev %d iova %#x size %d", e.Dev, uint64(e.IOVA), e.Size)
	case EventFault:
		return fmt.Sprintf("dev %d iova %#x want %s: %s", e.Dev, uint64(e.IOVA), e.Perm, e.Reason)
	case EventBlock:
		return fmt.Sprintf("dev %d blocked (quarantine)", e.Dev)
	case EventUnblock:
		return fmt.Sprintf("dev %d unblocked (readmitted)", e.Dev)
	case EventDetach:
		return fmt.Sprintf("dev %d detached (hot-unplug)", e.Dev)
	case EventWipe:
		return fmt.Sprintf("dev %d domain wiped (%d pages)", e.Dev, e.Arg)
	case EventInval:
		return fmt.Sprintf("submitted, hw completes at %d", e.Arg)
	case EventInvalTimeout:
		return fmt.Sprintf("ITE: completion %d still pending", e.Arg)
	case EventInvalRecover:
		return "IQE/ITE recovery: queue drained, global invalidate"
	}
	return fmt.Sprintf("event(%d)", e.Kind)
}

// emit stamps e with the running proc's clock (the engine's time when no
// proc runs) and hands it to OnEvent. Callers check OnEvent first, so an
// unobserved IOMMU pays one nil check.
func (u *IOMMU) emit(e Event) {
	e.At = u.eng.Now()
	if p := u.eng.Current(); p != nil {
		e.At = p.Now()
	}
	u.OnEvent(e)
}
