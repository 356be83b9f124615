package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/dmaapi"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// Mixed-I/O extension study: a NIC and an NVMe-class SSD behind the SAME
// IOMMU. The invalidation queue (and its lock) is per-IOMMU, not
// per-device, so under strict zero-copy protection the storage traffic's
// invalidations contend with the NIC's — an interference channel that DMA
// shadowing eliminates entirely (it never invalidates).

// MixedResult reports one mixed run.
type MixedResult struct {
	System   string
	NetGbps  float64
	BlkIOPS  float64
	NetCPU   float64
	Errors   uint64
	InvWaits uint64 // contended acquisitions of the invalidation-queue lock
}

// RunMixed runs netCores of RX traffic (16 KiB messages) concurrently with
// blkCores of 4 KiB random I/O, both devices behind one IOMMU.
func RunMixed(system string, netCores, blkCores int, windowMs float64) (MixedResult, error) {
	costs := cycles.Default()
	eng := sim.NewEngine()
	m := mem.New(2)
	u := iommu.New(eng, m, costs)
	totalCores := netCores + blkCores

	newMapperFor := func(dev iommu.DeviceID, hint bool) (dmaapi.Mapper, *dmaapi.Env, error) {
		env := &dmaapi.Env{Eng: eng, Mem: m, IOMMU: u, Costs: costs, Dev: dev, Cores: totalCores}
		if system == SysCopy {
			var opts []core.Option
			if hint {
				opts = append(opts, core.WithHint(netstack.PacketLenHint))
			}
			mp, err := core.NewShadowMapper(env, opts...)
			return mp, env, err
		}
		mp, err := NewMapper(system, env)
		return mp, env, err
	}
	netMapper, netEnv, err := newMapperFor(1, true)
	if err != nil {
		return MixedResult{}, err
	}
	blkMapper, blkEnv, err := newMapperFor(2, false)
	if err != nil {
		return MixedResult{}, err
	}

	n := nic.New(eng, u, nic.Config{Dev: 1, Queues: netCores, RingSize: 256, MTU: 1500, TSO: true, Costs: costs})
	k := mem.NewKmalloc(m, nil)
	drv := netstack.NewDriver(netEnv, netMapper, n, k, 2048)
	dev := ssd.New(eng, u, ssd.Config{Dev: 2, Queues: blkCores, Costs: costs})
	bd := ssd.NewBlockDriver(blkEnv, blkMapper, dev, k)

	netStats := make([]netstack.RxStats, netCores)
	blkStats := make([]ssd.WorkloadStats, blkCores)
	var procs []*sim.Proc
	var runErr error
	for c := 0; c < netCores; c++ {
		c := c
		pr := eng.Spawn(fmt.Sprintf("rx%d", c), c, 0, func(p *sim.Proc) {
			if err := drv.SetupQueue(p, c); err != nil {
				runErr = err
				return
			}
			if err := drv.RunRxStream(p, c, 16384, &netStats[c]); err != nil {
				runErr = err
			}
		})
		procs = append(procs, pr)
		src := nic.NewSource(eng, n.Queue(c), costs, 16384, 1500, true)
		src.Start(0)
	}
	for c := 0; c < blkCores; c++ {
		c := c
		eng.Spawn(fmt.Sprintf("blk%d", c), netCores+c, 0, func(p *sim.Proc) {
			wcfg := ssd.WorkloadConfig{IOSize: 4096, ReadPct: 70, Depth: 32, Seed: 11}
			if err := bd.RunWorkload(p, c, wcfg, &blkStats[c]); err != nil {
				runErr = err
			}
		})
	}
	window := cycles.FromMillis(windowMs)
	eng.Run(window)
	var netBusy uint64
	for _, p := range procs {
		netBusy += p.Busy()
	}
	contended := u.Queue.Lock.Contended
	eng.Stop()
	m.Release()
	if runErr != nil {
		return MixedResult{}, runErr
	}
	var netBytes uint64
	for _, s := range netStats {
		netBytes += s.Bytes
	}
	var blkOps, blkErrs uint64
	for _, s := range blkStats {
		blkOps += s.Reads + s.Writes
		blkErrs += s.Errors
	}
	return MixedResult{
		System:   system,
		NetGbps:  cycles.Gbps(netBytes, window),
		BlkIOPS:  cycles.PerSec(blkOps, window),
		NetCPU:   100 * float64(netBusy) / (float64(window) * float64(netCores)),
		Errors:   blkErrs,
		InvWaits: contended,
	}, nil
}

// MixedStudy is the extension table: network throughput with and without a
// busy SSD behind the same IOMMU.
func MixedStudy(opt Options) (*Table, error) {
	t := &Table{
		Name:  "mixed",
		Title: "Mixed-I/O study (extension): NIC + SSD behind one IOMMU (4+4 cores)",
		Columns: []string{"system", "net-only Gb/s", "net+ssd Gb/s", "net loss%",
			"ssd KIOPS", "invq contention"},
	}
	t.SetWinner("net_both_gbps", false)
	systems := opt.systems()
	results := make([]MixedResult, len(systems)*2) // [2i]=alone, [2i+1]=both
	err := opt.farm().Map(len(results), func(i int) error {
		sys := systems[i/2]
		blkCores := 0
		if i%2 == 1 {
			blkCores = 4
		}
		r, err := RunMixed(sys, 4, blkCores, opt.window())
		if err != nil {
			return fmt.Errorf("%s (4+%d cores): %w", sys, blkCores, err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, sys := range systems {
		alone, both := results[2*i], results[2*i+1]
		loss := 0.0
		if alone.NetGbps > 0 {
			loss = 100 * (1 - both.NetGbps/alone.NetGbps)
		}
		t.AddRow(sys, f2(alone.NetGbps), f2(both.NetGbps), f1(loss),
			f1(both.BlkIOPS/1e3), fmt.Sprintf("%d", both.InvWaits))
		t.Point(sys, "4+4 cores", map[string]float64{
			"net_alone_gbps": alone.NetGbps,
			"net_both_gbps":  both.NetGbps,
			"loss_pct":       loss,
			"blk_kiops":      both.BlkIOPS / 1e3,
			"invq_contended": float64(both.InvWaits),
		})
	}
	return t, nil
}
