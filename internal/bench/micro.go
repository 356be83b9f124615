package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/cycles"
	"repro/internal/dmaapi"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
)

// DMA API microbenchmark: the cost of map+unmap pairs in isolation, with
// no datapath around them — the number behind Figure 5a's insight that a
// 1500 B copy (0.13us with pool overhead) beats an IOTLB invalidation
// (0.61us) before any packet processing even starts.

// MicroPattern is a synthetic dma_map/dma_unmap workload.
type MicroPattern struct {
	Name string
	// Sizes cycles through buffer sizes for successive map calls.
	Sizes []int
	Dir   dmaapi.Dir
	// Depth is how many mappings are live before unmapping begins
	// (models in-flight DMA depth).
	Depth int
}

// MicroPatterns are the standard patterns, matching the evaluation's
// workload shapes.
var MicroPatterns = []MicroPattern{
	{Name: "rx 1500B", Sizes: []int{1500}, Dir: dmaapi.FromDevice, Depth: 64},
	{Name: "tx 64KB", Sizes: []int{65536}, Dir: dmaapi.ToDevice, Depth: 16},
	{Name: "storage 4KB", Sizes: []int{4096}, Dir: dmaapi.Bidirectional, Depth: 32},
	{Name: "mixed", Sizes: []int{256, 1500, 4096, 16384}, Dir: dmaapi.FromDevice, Depth: 32},
}

// MicroResult is the average cost of one map+unmap pair.
type MicroResult struct {
	System    string
	Pattern   string
	PerPairUs float64
}

// RunMicro measures `pairs` map+unmap pairs of a pattern under a strategy.
func RunMicro(system string, pat MicroPattern, pairs int) (MicroResult, error) {
	r, _, err := runMicro(system, pat, pairs, nil)
	return r, err
}

// runMicro is RunMicro with an optional observer; when o is non-nil the
// returned profile attributes the microbenchmark proc's busy cycles.
func runMicro(system string, pat MicroPattern, pairs int, o *obs.Observer) (MicroResult, *obs.Profile, error) {
	cfg := DefaultConfig(system, RX, 1, pat.Sizes[0])
	cfg.NoHint = true
	cfg.Obs = o
	mach, err := NewMachine(cfg)
	if err != nil {
		return MicroResult{}, nil, err
	}
	defer mach.Teardown()
	var perPair float64
	var runErr error
	pr := mach.Eng.Spawn("micro", 0, 0, func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(1))
		type live struct {
			addr iommu.IOVA
			buf  mem.Buf
		}
		var q []live
		// Pre-allocate one buffer per depth slot per size.
		bufs := map[int][]mem.Buf{}
		for _, sz := range pat.Sizes {
			for i := 0; i < pat.Depth+1; i++ {
				b, err := mach.Kmal.Alloc(0, sz)
				if err != nil {
					runErr = err
					return
				}
				bufs[sz] = append(bufs[sz], b)
			}
		}
		used := map[int]int{}
		start := p.Now()
		for i := 0; i < pairs; i++ {
			sz := pat.Sizes[i%len(pat.Sizes)]
			b := bufs[sz][used[sz]%len(bufs[sz])]
			used[sz]++
			addr, err := mach.Mapper.Map(p, b, pat.Dir)
			if err != nil {
				runErr = err
				return
			}
			q = append(q, live{addr: addr, buf: b})
			if len(q) > pat.Depth {
				v := q[rng.Intn(len(q))]
				// Unmap a random live mapping (LRU-ish churn).
				for j := range q {
					if q[j] == v {
						q[j] = q[len(q)-1]
						q = q[:len(q)-1]
						break
					}
				}
				if err := mach.Mapper.Unmap(p, v.addr, v.buf.Size, pat.Dir); err != nil {
					runErr = err
					return
				}
			}
		}
		for _, v := range q {
			if err := mach.Mapper.Unmap(p, v.addr, v.buf.Size, pat.Dir); err != nil {
				runErr = err
				return
			}
		}
		mach.Mapper.Quiesce(p)
		perPair = cycles.Micros(p.Now()-start) / float64(pairs)
	})
	mach.Eng.Run(1 << 50)
	var prof *obs.Profile
	if o != nil {
		snap := o.Prof.Snapshot()
		snap.TotalBusy = pr.Busy()
		prof = &snap
	}
	if runErr != nil {
		return MicroResult{}, nil, runErr
	}
	return MicroResult{System: system, Pattern: pat.Name, PerPairUs: perPair}, prof, nil
}

// APIMicro builds the microbenchmark table across patterns and systems.
func APIMicro(opt Options) (*Table, error) {
	systems := opt.systems()
	t := &Table{
		Name:    "apimicro",
		Title:   "DMA API microbenchmark: us per map+unmap pair (no datapath)",
		Columns: append([]string{"pattern"}, systems...),
	}
	t.SetWinner("pair_us", true)
	results := make([]MicroResult, len(MicroPatterns)*len(systems))
	err := opt.farm().Map(len(results), func(i int) error {
		pat, sys := MicroPatterns[i/len(systems)], systems[i%len(systems)]
		r, err := RunMicro(sys, pat, 2000)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", sys, pat.Name, err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pi, pat := range MicroPatterns {
		row := []string{pat.Name}
		for si, sys := range systems {
			r := results[pi*len(systems)+si]
			row = append(row, fmt.Sprintf("%.3f", r.PerPairUs))
			t.Point(sys, pat.Name, map[string]float64{"pair_us": r.PerPairUs})
		}
		t.AddRow(row...)
	}
	return t, nil
}
