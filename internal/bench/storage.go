package bench

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// StorageResult is the outcome of one SSD benchmark run.
type StorageResult struct {
	System  string
	IOSize  int
	ReadPct int
	IOPS    float64
	GBps    float64
	CPUPct  float64
	Errors  uint64
	// HybridMaps counts copy's §5.5 hybrid mappings (zero for sizes
	// within the largest shadow class).
	HybridMaps uint64
}

// RunStorage runs a fio-style random I/O workload against the simulated
// NVMe-class SSD under one protection strategy — the extension study that
// quantifies the paper's §5.5 claim (low IOPS make zero-copy+strict
// affordable for huge buffers, which is where the hybrid path engages).
func RunStorage(system string, cores, ioSize, readPct int, windowMs float64) (StorageResult, error) {
	cfg := DefaultConfig(system, RX, cores, ioSize)
	cfg.WindowMs = windowMs
	cfg.NoHint = true // the packet-length hint is network-specific
	mach, err := NewMachine(cfg)
	if err != nil {
		return StorageResult{}, err
	}
	dev := ssd.New(mach.Eng, mach.IOMMU, ssd.Config{
		Dev:    mach.Env.Dev,
		Queues: cores,
		Costs:  cfg.Costs,
	})
	bd := ssd.NewBlockDriver(mach.Env, mach.Mapper, dev, mach.Kmal)
	stats := make([]ssd.WorkloadStats, cores)
	var procs []*sim.Proc
	var runErr error
	for c := 0; c < cores; c++ {
		c := c
		pr := mach.Eng.Spawn(fmt.Sprintf("blk%d", c), c, 0, func(p *sim.Proc) {
			wcfg := ssd.WorkloadConfig{IOSize: ioSize, ReadPct: readPct, Depth: 32, Seed: 42}
			if err := bd.RunWorkload(p, c, wcfg, &stats[c]); err != nil {
				runErr = err
			}
		})
		procs = append(procs, pr)
	}
	window := cycles.FromMillis(windowMs)
	mach.Eng.Run(window)
	var busy uint64
	for _, p := range procs {
		busy += p.Busy()
	}
	ms := mach.Mapper.Stats()
	mach.Teardown()
	if runErr != nil {
		return StorageResult{}, runErr
	}
	var ops, bytes, errs uint64
	for _, s := range stats {
		ops += s.Reads + s.Writes
		bytes += s.Bytes
		errs += s.Errors
	}
	return StorageResult{
		System:     system,
		IOSize:     ioSize,
		ReadPct:    readPct,
		IOPS:       cycles.PerSec(ops, window),
		GBps:       float64(bytes) / (float64(window) / cycles.Hz) / 1e9,
		CPUPct:     100 * float64(busy) / (float64(window) * float64(cores)),
		Errors:     errs,
		HybridMaps: ms.HybridMaps,
	}, nil
}

// StorageStudy is the extension experiment table: IOPS/bandwidth/CPU
// across protection strategies and I/O sizes (70/30 random read/write mix,
// 4 queues).
func StorageStudy(opt Options) (*Table, error) {
	t := &Table{
		Name:    "storage",
		Title:   "Storage study (extension, paper §5.5): NVMe-class SSD, 70/30 R/W, 4 queues",
		Columns: []string{"io size", "system", "KIOPS", "GB/s", "cpu%", "hybrid maps"},
	}
	t.SetWinner("kiops", false)
	sizes := []int{4096, 65536, 262144}
	systems := opt.systems()
	results := make([]StorageResult, len(sizes)*len(systems))
	err := opt.farm().Map(len(results), func(i int) error {
		sz, sys := sizes[i/len(systems)], systems[i%len(systems)]
		r, err := RunStorage(sys, 4, sz, 70, opt.window())
		if err != nil {
			return fmt.Errorf("%s/%s: %w", sys, sizeLabel(sz), err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	for zi, sz := range sizes {
		for si, sys := range systems {
			r := results[zi*len(systems)+si]
			t.AddRow(sizeLabel(sz), sys, f1(r.IOPS/1e3), f2(r.GBps), f1(r.CPUPct),
				fmt.Sprintf("%d", r.HybridMaps))
			t.Point(sys, sizeLabel(sz), map[string]float64{
				"kiops":       r.IOPS / 1e3,
				"gb_per_sec":  r.GBps,
				"cpu_pct":     r.CPUPct,
				"hybrid_maps": float64(r.HybridMaps),
			})
		}
	}
	return t, nil
}
