package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"

	"repro/internal/cycles"
	"repro/internal/iommu"
)

// Recorder captures the simulated timeline for Chrome trace-event export:
// every completed span becomes a complete ("X") slice on its core's track,
// every IOMMU event a point ("i") event on the IOMMU's track. Slices and
// events are each capacity-bounded so a long run cannot exhaust host
// memory; overflow is counted, not fatal.
type Recorder struct {
	slices []traceSlice
	events []iommu.Event
	max    int
	// Dropped counts slices and events discarded after the capacity was
	// reached.
	Dropped uint64
}

type traceSlice struct {
	name       string
	core       int
	start, end uint64
}

// DefaultRecorderCap bounds the recorded slice count (~64 B per slice).
const DefaultRecorderCap = 1 << 20

// NewRecorder returns a recorder holding up to max slices (and as many
// IOMMU events); max <= 0 selects DefaultRecorderCap.
func NewRecorder(max int) *Recorder {
	if max <= 0 {
		max = DefaultRecorderCap
	}
	return &Recorder{max: max}
}

func (r *Recorder) slice(name string, core int, start, end uint64) {
	if len(r.slices) >= r.max {
		r.Dropped++
		return
	}
	r.slices = append(r.slices, traceSlice{name: name, core: core, start: start, end: end})
}

// IOMMUEvent records one IOMMU event: install it as iommu.IOMMU.OnEvent.
func (r *Recorder) IOMMUEvent(e iommu.Event) {
	if len(r.events) >= r.max {
		r.Dropped++
		return
	}
	r.events = append(r.events, e)
}

// chromeEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// Perfetto and chrome://tracing both load the JSON-object flavour:
// {"traceEvents": [...]}.
type chromeEvent struct {
	Name  string      `json:"name"`
	Cat   string      `json:"cat,omitempty"`
	Phase string      `json:"ph"`
	TS    float64     `json:"ts"`            // microseconds
	Dur   float64     `json:"dur,omitempty"` // microseconds, ph=X only
	PID   int         `json:"pid"`
	TID   int         `json:"tid"`
	Scope string      `json:"s,omitempty"` // ph=i scope
	Args  interface{} `json:"args,omitempty"`
}

// iommuArgs are an IOMMU event's typed args; msg is Event.String.
type iommuArgs struct {
	Dev  iommu.DeviceID `json:"dev"`
	IOVA uint64         `json:"iova"`
	Phys uint64         `json:"phys"`
	Size int            `json:"size"`
	Msg  string         `json:"msg"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Process IDs in the exported trace: CPU cores are threads of pid 0, the
// IOMMU's events land on pid 1.
const (
	chromePIDCores = 0
	chromePIDIOMMU = 1
)

// WriteChromeTrace renders the recorded timeline, plus the IOMMU's events
// as instants on a separate "iommu" process, as Chrome trace-event JSON.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	f := chromeFile{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}

	cores := map[int]bool{}
	for _, s := range r.slices {
		cores[s.core] = true
	}
	coreIDs := make([]int, 0, len(cores))
	for c := range cores {
		coreIDs = append(coreIDs, c)
	}
	sort.Ints(coreIDs)

	f.TraceEvents = append(f.TraceEvents, chromeEvent{
		Name: "process_name", Phase: "M", PID: chromePIDCores,
		Args: map[string]interface{}{"name": "cpu"},
	})
	for _, c := range coreIDs {
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: "thread_name", Phase: "M", PID: chromePIDCores, TID: c,
			Args: map[string]interface{}{"name": coreName(c)},
		})
	}

	for _, s := range r.slices {
		dur := cycles.Micros(s.end - s.start)
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: s.name, Cat: "span", Phase: "X",
			TS: cycles.Micros(s.start), Dur: dur,
			PID: chromePIDCores, TID: s.core,
		})
	}

	f.TraceEvents = append(f.TraceEvents, chromeEvent{
		Name: "process_name", Phase: "M", PID: chromePIDIOMMU,
		Args: map[string]interface{}{"name": "iommu"},
	})
	for _, e := range r.events {
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: e.Kind.Category(), Cat: "iommu", Phase: "i",
			TS: cycles.Micros(e.At), PID: chromePIDIOMMU, TID: 0,
			Scope: "p",
			Args: iommuArgs{Dev: e.Dev, IOVA: uint64(e.IOVA), Phys: uint64(e.Phys),
				Size: e.Size, Msg: e.String()},
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// WriteChromeTraceFile is WriteChromeTrace to a new file at path.
func (r *Recorder) WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func coreName(c int) string {
	// Small, allocation-free itoa for track names.
	if c < 0 {
		return "core?"
	}
	var buf [16]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + c%10)
		c /= 10
		if c == 0 {
			break
		}
	}
	return "core" + string(buf[i:])
}
