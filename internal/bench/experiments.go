package bench

import (
	"fmt"
	"sync"

	"repro/internal/cycles"
)

// MessageSizes is the x-axis of Figures 3, 4, 6, 7 and 9.
var MessageSizes = []int{64, 256, 1024, 4096, 16384, 65536}

// Options tunes experiment execution (shorter windows for tests).
type Options struct {
	WindowMs float64
	Sizes    []int
	Systems  []string
	// Costs overrides the cost model (the sensitivity analysis perturbs
	// it); nil uses the paper-calibrated defaults. It reaches only the
	// netperf stream points that config builds (RX, TX and RR): memcached,
	// storage, mixed and the DMA API microbenchmark always run the
	// default model.
	Costs *cycles.Costs
	// Farm is the worker pool sweep points are submitted through. Nil
	// uses a shared process-wide pool sized GOMAXPROCS, so standalone
	// experiment calls still parallelize; RunSuite and cmd/reproduce's
	// cycle report thread an explicitly-sized pool through here
	// (-parallel).
	Farm *Farm

	// memo shares points between the sections of one RunSuite call (see
	// runMemo); nil gives each experiment call its own.
	memo *runMemo
}

// sharedFarm is the lazily-created default pool for Options without an
// explicit Farm. It is never closed: idle workers cost nothing.
var sharedFarm struct {
	once sync.Once
	f    *Farm
}

func (o Options) farm() *Farm {
	if o.Farm != nil {
		return o.Farm
	}
	sharedFarm.once.Do(func() { sharedFarm.f = NewFarm(0) })
	return sharedFarm.f
}

// config is DefaultConfig with the options' window and cost model.
func (o Options) config(system string, dir Direction, cores, msgSize int) Config {
	cfg := DefaultConfig(system, dir, cores, msgSize)
	cfg.WindowMs = o.window()
	if o.Costs != nil {
		c := *o.Costs
		cfg.Costs = &c
	}
	return cfg
}

func (o Options) window() float64 {
	if o.WindowMs <= 0 {
		return 20
	}
	return o.WindowMs
}

func (o Options) sizes() []int {
	if len(o.Sizes) == 0 {
		return MessageSizes
	}
	return o.Sizes
}

func (o Options) systems() []string {
	if len(o.Systems) == 0 {
		return FigureSystems
	}
	return o.Systems
}

// StreamSweep runs a STREAM experiment over (system, size) and returns the
// results keyed [system][size]. Data points are independent simulations
// submitted through the farm (each on its own engine) and merged in
// canonical point order, so results are bit-deterministic regardless of
// worker count or completion order.
func StreamSweep(dir Direction, cores int, opt Options) (map[string]map[int]Result, error) {
	var cfgs []Config
	for _, sys := range opt.systems() {
		for _, sz := range opt.sizes() {
			cfgs = append(cfgs, opt.config(sys, dir, cores, sz))
		}
	}
	results, err := opt.runConfigs(cfgs, func(i int) string {
		return fmt.Sprintf("%s/%s/%d", cfgs[i].System, dir, cfgs[i].MsgSize)
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[int]Result)
	for i, cfg := range cfgs {
		if out[cfg.System] == nil {
			out[cfg.System] = make(map[int]Result)
		}
		out[cfg.System][cfg.MsgSize] = results[i]
	}
	return out, nil
}

// streamTable renders a sweep in the paper's four-panel form (throughput,
// relative throughput, CPU, relative CPU), one row per message size, and
// records the structured gbps/rel/cpu_pct series for the artifact.
func streamTable(name, title string, results map[string]map[int]Result, opt Options) *Table {
	t := &Table{
		Name:    name,
		Title:   title,
		Columns: []string{"msg"},
	}
	t.SetWinner("gbps", false)
	systems := opt.systems()
	for _, s := range systems {
		t.Columns = append(t.Columns, s+" Gb/s")
	}
	for _, s := range systems {
		t.Columns = append(t.Columns, s+" rel")
	}
	for _, s := range systems {
		t.Columns = append(t.Columns, s+" cpu%")
	}
	for _, sz := range opt.sizes() {
		base := results[SysNoIOMMU][sz]
		row := []string{sizeLabel(sz)}
		for _, s := range systems {
			row = append(row, f2(results[s][sz].Gbps))
		}
		for _, s := range systems {
			rel := 0.0
			if base.Gbps > 0 {
				rel = results[s][sz].Gbps / base.Gbps
			}
			row = append(row, f2(rel))
		}
		for _, s := range systems {
			row = append(row, f1(results[s][sz].CPUPct))
		}
		t.AddRow(row...)
		for _, s := range systems {
			r := results[s][sz]
			m := map[string]float64{"gbps": r.Gbps, "cpu_pct": r.CPUPct}
			if base.Gbps > 0 {
				m["rel"] = r.Gbps / base.Gbps
			}
			t.Point(s, sizeLabel(sz), m)
		}
	}
	return t
}

// Fig1 reproduces Figure 1: single- vs 16-core RX throughput of all six
// systems with MSS-sized (1500 B) packets.
func Fig1(opt Options) (*Table, error) {
	if len(opt.Systems) == 0 {
		opt.Systems = AllSystems
	}
	t := &Table{
		Name:    "fig1",
		Title:   "Figure 1: IOMMU-based OS protection cost (TCP RX, 1500B packets, Gb/s)",
		Columns: []string{"system", "1 core", "16 cores"},
	}
	t.SetWinner("gbps", false)
	systems := opt.systems()
	coreCounts := []int{1, 16}
	results, err := opt.coreSweep(systems, coreCounts)
	if err != nil {
		return nil, err
	}
	for si, sys := range systems {
		row := []string{sys}
		for ci, cores := range coreCounts {
			r := results[si*len(coreCounts)+ci]
			row = append(row, f2(r.Gbps))
			t.Point(sys, fmt.Sprintf("%d cores", cores),
				map[string]float64{"gbps": r.Gbps, "cpu_pct": r.CPUPct})
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig1Extended goes where the paper never went: the Figure 1 TCP RX
// workload swept to 64 and 128 simulated cores (the paper stops at 16),
// for every protection model, with the spinlock-attribution column that
// explains the strict models' collapse — at high core counts the
// IOVA-allocator and invalidation-queue locks serialize everything, so
// lock cycles per op is the figure's real story. All 30 points fan out
// across the shared farm; the merge is canonical-order, so the table is
// byte-identical at any worker count.
func Fig1Extended(opt Options) (*Table, error) {
	if len(opt.Systems) == 0 {
		opt.Systems = AllSystems
	}
	coreCounts := []int{1, 4, 16, 64, 128}
	t := &Table{
		Name:  "fig1ext",
		Title: "Figure 1 extended (beyond paper): TCP RX Gb/s at 1-128 cores, 1500B packets",
		Note:  "lock us/op = spinlock wait attributed per frame at 64/128 cores",
		Columns: []string{"system", "1 core", "4 cores", "16 cores", "64 cores", "128 cores",
			"lock us/op @64", "lock us/op @128"},
	}
	t.SetWinner("gbps", false)
	systems := opt.systems()
	results, err := opt.coreSweep(systems, coreCounts)
	if err != nil {
		return nil, err
	}
	for si, sys := range systems {
		row := []string{sys}
		var lock64, lock128 float64
		for ci, cores := range coreCounts {
			r := results[si*len(coreCounts)+ci]
			row = append(row, f2(r.Gbps))
			lock := r.PerOp[cycles.TagSpinlock]
			switch cores {
			case 64:
				lock64 = lock
			case 128:
				lock128 = lock
			}
			t.Point(sys, fmt.Sprintf("%d cores", cores), map[string]float64{
				"gbps":           r.Gbps,
				"cpu_pct":        r.CPUPct,
				"spinlock_us_op": lock,
				"iotlb_hit_rate": r.IOTLBHitRate,
				"rx_drops":       float64(r.RxDrops),
			})
		}
		row = append(row, f2(lock64), f2(lock128))
		t.AddRow(row...)
	}
	return t, nil
}

// coreSweep runs Figure 1's workload (TCP RX, 16 KiB messages) for every
// system at every core count; results are system-major.
func (o Options) coreSweep(systems []string, coreCounts []int) ([]Result, error) {
	cfgs := make([]Config, 0, len(systems)*len(coreCounts))
	for _, sys := range systems {
		for _, cores := range coreCounts {
			cfgs = append(cfgs, o.config(sys, RX, cores, 16384))
		}
	}
	return o.runConfigs(cfgs, func(i int) string {
		return fmt.Sprintf("%s/%d cores", cfgs[i].System, cfgs[i].Cores)
	})
}

// Fig3 reproduces Figure 3: single-core TCP receive.
func Fig3(opt Options) (*Table, error) {
	res, err := StreamSweep(RX, 1, opt)
	if err != nil {
		return nil, err
	}
	return streamTable("fig3", "Figure 3: single-core TCP receive (RX)", res, opt), nil
}

// Fig4 reproduces Figure 4: single-core TCP transmit.
func Fig4(opt Options) (*Table, error) {
	res, err := StreamSweep(TX, 1, opt)
	if err != nil {
		return nil, err
	}
	return streamTable("fig4", "Figure 4: single-core TCP transmit (TX)", res, opt), nil
}

// Fig6 reproduces Figure 6: 16-core TCP receive.
func Fig6(opt Options) (*Table, error) {
	res, err := StreamSweep(RX, 16, opt)
	if err != nil {
		return nil, err
	}
	return streamTable("fig6", "Figure 6: 16-core TCP receive (RX)", res, opt), nil
}

// Fig7 reproduces Figure 7: 16-core TCP transmit.
func Fig7(opt Options) (*Table, error) {
	res, err := StreamSweep(TX, 16, opt)
	if err != nil {
		return nil, err
	}
	return streamTable("fig7", "Figure 7: 16-core TCP transmit (TX)", res, opt), nil
}

// Breakdown reproduces Figures 5 and 8: the average per-DMA-operation
// processing-time breakdown (microseconds) at 64 KiB messages.
func Breakdown(dir Direction, cores int, opt Options) (*Table, map[string]Result, error) {
	opt.Sizes = []int{65536}
	res, err := StreamSweep(dir, cores, opt)
	if err != nil {
		return nil, nil, err
	}
	fig, figName := "Figure 5", "fig5"
	if cores > 1 {
		fig, figName = "Figure 8", "fig8"
	}
	panel := map[Direction]string{RX: "a", TX: "b"}[dir]
	t := &Table{
		Name: figName + panel,
		Title: fmt.Sprintf("%s%s: per-packet time breakdown, %d-core %s, 64KB messages (us)",
			fig, panel, cores, dir),
		Columns: append([]string{"component"}, opt.systems()...),
	}
	t.SetWinner("total_us", true)
	flat := make(map[string]Result)
	for _, s := range opt.systems() {
		flat[s] = res[s][65536]
	}
	for _, comp := range cycles.Components {
		row := []string{comp}
		for _, s := range opt.systems() {
			row = append(row, f2(flat[s].PerOp[comp]))
		}
		t.AddRow(row...)
	}
	total := []string{"TOTAL"}
	tput := []string{"throughput Gb/s"}
	for _, s := range opt.systems() {
		// Summed in component order, not map order, so total_us is
		// bit-identical from run to run.
		sum := 0.0
		for _, comp := range cycles.Components {
			sum += flat[s].PerOp[comp]
		}
		total = append(total, f2(sum))
		tput = append(tput, f2(flat[s].Gbps))
		metrics := map[string]float64{"total_us": sum, "gbps": flat[s].Gbps}
		for _, comp := range cycles.Components {
			metrics[comp+"_us"] = flat[s].PerOp[comp]
		}
		t.Point(s, "64KB", metrics)
	}
	t.AddRow(total...)
	t.AddRow(tput...)
	return t, flat, nil
}

// Fig9 reproduces Figure 9: TCP request/response latency and CPU.
func Fig9(opt Options) (*Table, map[string]map[int]Result, error) {
	res, err := StreamSweep(RR, 1, opt)
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Name:    "fig9",
		Title:   "Figure 9: TCP latency (single-core netperf request/response)",
		Columns: []string{"msg"},
	}
	t.SetWinner("lat_us", true)
	for _, s := range opt.systems() {
		t.Columns = append(t.Columns, s+" us")
	}
	for _, s := range opt.systems() {
		t.Columns = append(t.Columns, s+" p99")
	}
	for _, s := range opt.systems() {
		t.Columns = append(t.Columns, s+" cpu%")
	}
	for _, sz := range opt.sizes() {
		row := []string{sizeLabel(sz)}
		for _, s := range opt.systems() {
			row = append(row, f1(res[s][sz].LatencyUs))
		}
		for _, s := range opt.systems() {
			row = append(row, f1(res[s][sz].LatencyP99Us))
		}
		for _, s := range opt.systems() {
			row = append(row, f1(res[s][sz].CPUPct))
		}
		t.AddRow(row...)
		for _, s := range opt.systems() {
			r := res[s][sz]
			t.Point(s, sizeLabel(sz), map[string]float64{
				"lat_us": r.LatencyUs, "p99_us": r.LatencyP99Us, "cpu_pct": r.CPUPct,
			})
		}
	}
	return t, res, nil
}

// Fig10 reproduces Figure 10: the RR CPU-utilization breakdown at 64 KiB.
func Fig10(opt Options) (*Table, error) {
	opt.Sizes = []int{65536}
	_, res, err := Fig9(opt)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    "fig10",
		Title:   "Figure 10: single-core TCP RR CPU utilization breakdown (64KB messages, % of core)",
		Columns: append([]string{"component"}, opt.systems()...),
	}
	t.SetWinner("cpu_pct", true)
	window := cycles.FromMillis(opt.window())
	perComp := make(map[string]map[string]float64) // [system][component] pct
	for _, s := range opt.systems() {
		perComp[s] = make(map[string]float64)
	}
	for _, comp := range cycles.Components {
		row := []string{comp}
		for _, s := range opt.systems() {
			r := res[s][65536]
			// PerOp is us per transaction; convert to % of the core.
			pct := r.PerOp[comp] * float64(r.Ops) / cycles.Micros(window) * 100
			perComp[s][comp] = pct
			row = append(row, f1(pct))
		}
		t.AddRow(row...)
	}
	cpu := []string{"TOTAL cpu%"}
	lat := []string{"latency us"}
	for _, s := range opt.systems() {
		cpu = append(cpu, f1(res[s][65536].CPUPct))
		lat = append(lat, f1(res[s][65536].LatencyUs))
		metrics := map[string]float64{
			"cpu_pct": res[s][65536].CPUPct,
			"lat_us":  res[s][65536].LatencyUs,
		}
		for comp, pct := range perComp[s] {
			metrics[comp+"_pct"] = pct
		}
		t.Point(s, "64KB", metrics)
	}
	t.AddRow(cpu...)
	t.AddRow(lat...)
	return t, nil
}

// MemoryConsumption reproduces the §6 measurement: shadow pool footprint
// under the 16-core RX and TX workloads, against the worst-case bound.
func MemoryConsumption(opt Options) (*Table, error) {
	t := &Table{
		Name:    "memory",
		Title:   "Memory consumption (paper §6): shadow DMA buffer footprint",
		Columns: []string{"workload", "pool bytes", "pool MB", "in-flight buffers"},
	}
	dirs := []Direction{RX, TX}
	cfgs := make([]Config, len(dirs))
	for i, dir := range dirs {
		cfgs[i] = opt.config(SysCopy, dir, 16, 65536)
	}
	results, err := opt.runConfigs(cfgs, func(i int) string {
		return fmt.Sprintf("%s/%s/16 cores", SysCopy, dirs[i])
	})
	if err != nil {
		return nil, err
	}
	for i, dir := range dirs {
		r := results[i]
		label := fmt.Sprintf("16-core %s 64KB", dir)
		t.AddRow(label,
			fmt.Sprintf("%d", r.PoolBytes),
			f2(float64(r.PoolBytes)/(1<<20)),
			fmt.Sprintf("%d", r.MapperStats.ShadowPoolBuffers))
		t.Point(SysCopy, label, map[string]float64{
			"pool_bytes": float64(r.PoolBytes),
			"pool_mb":    float64(r.PoolBytes) / (1 << 20),
			"buffers":    float64(r.MapperStats.ShadowPoolBuffers),
		})
	}
	t.Note = "worst case bound (paper): 2 NUMA domains x (16K x 4KB + 16K x 64KB) = 2.1 GB"
	return t, nil
}

// MemoryDetail breaks the §6 footprint down by shadow-pool size class. It
// reads the memory section's 16-core RX point, so in a report it runs no
// simulation of its own.
func MemoryDetail(opt Options) (*Table, error) {
	results, err := opt.runConfigs([]Config{opt.config(SysCopy, RX, 16, 65536)},
		func(int) string { return fmt.Sprintf("%s/%s/16 cores", SysCopy, RX) })
	if err != nil {
		return nil, err
	}
	r := results[0]
	t := &Table{
		Name:    "memdetail",
		Title:   "Shadow pool composition (paper §6): 16-core RX 64KB, MB per size class",
		Columns: []string{"class", "MB"},
	}
	for i, b := range r.PoolBytesByClass {
		mb := float64(b) / (1 << 20)
		t.AddRow(fmt.Sprintf("%d", i), f2(mb))
		t.Point(SysCopy, fmt.Sprintf("class %d", i), map[string]float64{"mb": mb})
	}
	t.AddRow("total", f2(float64(r.PoolBytes)/(1<<20)))
	t.Point(SysCopy, "total", map[string]float64{
		"mb":               float64(r.PoolBytes) / (1 << 20),
		"grows":            float64(r.MapperStats.ShadowGrows),
		"fallback_buffers": float64(r.MapperStats.FallbackMaps),
		"iotlb_hit_rate":   r.IOTLBHitRate,
	})
	t.Note = fmt.Sprintf("pool grows %d, fallback buffers %d, IOTLB hit rate %.1f%%, invalidations %d",
		r.MapperStats.ShadowGrows, r.MapperStats.FallbackMaps, 100*r.IOTLBHitRate, r.Invalidations)
	return t, nil
}
