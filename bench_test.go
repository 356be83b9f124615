package repro

// One testing.B benchmark per table and figure of the paper (DESIGN.md §4
// maps each to its workload). Simulated results are reported through
// b.ReportMetric; wall-clock ns/op reflects simulator speed only.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The cmd/ binaries print the same experiments as full tables with longer
// simulation windows.

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/cycles"
)

// benchWindowMs keeps bench runtimes moderate; the shapes are stable well
// below this window.
const benchWindowMs = 8

func metricName(sys, unit string) string {
	return strings.ReplaceAll(sys, " ", "_") + "_" + unit
}

func runOne(b *testing.B, sys string, dir bench.Direction, cores, msg int) bench.Result {
	b.Helper()
	cfg := bench.DefaultConfig(sys, dir, cores, msg)
	cfg.WindowMs = benchWindowMs
	r, err := bench.Run(cfg)
	if err != nil {
		b.Fatalf("%s: %v", sys, err)
	}
	return r
}

func streamBench(b *testing.B, dir bench.Direction, cores, msg int) {
	for i := 0; i < b.N; i++ {
		for _, sys := range bench.FigureSystems {
			r := runOne(b, sys, dir, cores, msg)
			b.ReportMetric(r.Gbps, metricName(sys, "Gbps"))
			b.ReportMetric(r.CPUPct, metricName(sys, "cpu%"))
		}
	}
}

// BenchmarkFig1Motivation regenerates Figure 1: RX throughput of all six
// systems at 1 and 16 cores with MSS-sized packets.
func BenchmarkFig1Motivation(b *testing.B) {
	for _, cores := range []int{1, 16} {
		name := map[int]string{1: "1core", 16: "16core"}[cores]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, sys := range bench.AllSystems {
					r := runOne(b, sys, bench.RX, cores, 16384)
					b.ReportMetric(r.Gbps, metricName(sys, "Gbps"))
				}
			}
		})
	}
}

// BenchmarkFig3RxSingleCore regenerates Figure 3 at the plateau point.
func BenchmarkFig3RxSingleCore(b *testing.B) { streamBench(b, bench.RX, 1, 16384) }

// BenchmarkFig4TxSingleCore regenerates Figure 4 at 64 KiB messages (the
// TSO-dominated regime where copy pays for 64 KiB copies).
func BenchmarkFig4TxSingleCore(b *testing.B) { streamBench(b, bench.TX, 1, 65536) }

// BenchmarkFig5Breakdown regenerates Figure 5: the single-core per-packet
// component breakdown at 64 KiB messages.
func BenchmarkFig5Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sys := range bench.FigureSystems {
			r := runOne(b, sys, bench.RX, 1, 65536)
			for _, comp := range []string{cycles.TagMemcpy, cycles.TagInvalidate, cycles.TagPTMgmt, cycles.TagCopyMgmt} {
				b.ReportMetric(r.PerOp[comp], metricName(sys, strings.ReplaceAll(comp, " ", "_")+"_us"))
			}
		}
	}
}

// BenchmarkFig6RxMultiCore regenerates Figure 6 (the identity+ collapse).
func BenchmarkFig6RxMultiCore(b *testing.B) { streamBench(b, bench.RX, 16, 16384) }

// BenchmarkFig7TxMultiCore regenerates Figure 7 at small messages (the
// regime where identity+ is ~5x worse).
func BenchmarkFig7TxMultiCore(b *testing.B) { streamBench(b, bench.TX, 16, 1024) }

// BenchmarkFig8BreakdownMulti regenerates Figure 8: 16-core breakdown,
// dominated by identity+'s invalidation-queue spinlock.
func BenchmarkFig8BreakdownMulti(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sys := range []string{bench.SysCopy, bench.SysIdentityStrict} {
			r := runOne(b, sys, bench.RX, 16, 65536)
			b.ReportMetric(r.PerOp[cycles.TagSpinlock], metricName(sys, "spinlock_us"))
			b.ReportMetric(r.Gbps, metricName(sys, "Gbps"))
		}
	}
}

// BenchmarkFig9Latency regenerates Figure 9: request/response latency.
func BenchmarkFig9Latency(b *testing.B) {
	for _, msg := range []int{64, 65536} {
		name := map[int]string{64: "64B", 65536: "64KB"}[msg]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, sys := range bench.FigureSystems {
					r := runOne(b, sys, bench.RR, 1, msg)
					b.ReportMetric(r.LatencyUs, metricName(sys, "lat_us"))
				}
			}
		})
	}
}

// BenchmarkFig10LatencyBreakdown regenerates Figure 10: RR CPU use.
func BenchmarkFig10LatencyBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sys := range bench.FigureSystems {
			r := runOne(b, sys, bench.RR, 1, 65536)
			b.ReportMetric(r.CPUPct, metricName(sys, "cpu%"))
			b.ReportMetric(r.PerOp[cycles.TagInvalidate], metricName(sys, "inval_us_per_tx"))
		}
	}
}

// BenchmarkFig11Memcached regenerates Figure 11.
func BenchmarkFig11Memcached(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sys := range bench.FigureSystems {
			r, err := bench.RunMemcached(sys, 16, benchWindowMs)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.TransactionsPS/1e6, metricName(sys, "Mtx/s"))
		}
	}
}

// BenchmarkTable1SecurityMatrix regenerates Table 1 (attacks + perf).
func BenchmarkTable1SecurityMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := campaign.Table1(bench.Options{WindowMs: 4})
		if err != nil {
			b.Fatal(err)
		}
		secure := 0.0
		for _, r := range rows {
			if r.System == bench.SysCopy {
				if r.SubPageProtect && r.NoVulnWindow && r.SingleCorePerf && r.MultiCorePerf {
					secure = 1
				}
			}
		}
		b.ReportMetric(secure, "copy_all_columns_pass")
	}
}

// BenchmarkMemoryConsumption regenerates the §6 footprint measurement.
func BenchmarkMemoryConsumption(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, dir := range []bench.Direction{bench.RX, bench.TX} {
			r := runOne(b, bench.SysCopy, dir, 16, 65536)
			b.ReportMetric(float64(r.PoolBytes)/(1<<20), dir.String()+"_pool_MB")
		}
	}
}

// BenchmarkStorageStudy runs the §5.5 extension: NVMe-class SSD I/O under
// each strategy, where the hybrid path engages for 256 KiB buffers.
func BenchmarkStorageStudy(b *testing.B) {
	for _, sz := range []int{4096, 262144} {
		name := map[int]string{4096: "4KB", 262144: "256KB"}[sz]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, sys := range []string{bench.SysNoIOMMU, bench.SysCopy, bench.SysIdentityStrict} {
					r, err := bench.RunStorage(sys, 4, sz, 70, benchWindowMs)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(r.IOPS/1e3, metricName(sys, "KIOPS"))
					b.ReportMetric(r.CPUPct, metricName(sys, "cpu%"))
				}
			}
		})
	}
}

// BenchmarkMixedIOInterference runs the shared-IOMMU NIC+SSD study: the
// per-IOMMU invalidation queue couples the devices under strict zero-copy
// protection; DMA shadowing is immune.
func BenchmarkMixedIOInterference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sys := range []string{bench.SysCopy, bench.SysIdentityStrict} {
			r, err := bench.RunMixed(sys, 4, 4, benchWindowMs)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.NetGbps, metricName(sys, "net_Gbps"))
			b.ReportMetric(float64(r.InvWaits), metricName(sys, "invq_contention"))
		}
	}
}

// BenchmarkAblationMemcpy is the §5.4 "smart memcpy" study as a cost-model
// ablation: copy throughput under faster/slower memcpy engines. The paper
// found SIMD/non-temporal variants gave no overall benefit over REP MOVSB.
func BenchmarkAblationMemcpy(b *testing.B) {
	variants := map[string]uint64{"fast_simd": 33, "rep_movsb": 44, "slow": 66}
	for name, perByte := range variants {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := bench.DefaultConfig(bench.SysCopy, bench.RX, 1, 16384)
				cfg.WindowMs = benchWindowMs
				c := cycles.Default()
				c.MemcpyPerByte = perByte
				cfg.Costs = c
				r, err := bench.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.Gbps, "copy_Gbps")
			}
		})
	}
}

// BenchmarkAblationInvalidationCost sweeps the IOTLB-invalidation hardware
// latency: the copy design is insensitive to it (it never invalidates),
// while identity+ scales directly with it — the paper's core insight.
func BenchmarkAblationInvalidationCost(b *testing.B) {
	for _, hw := range []uint64{732, 1464, 2928} {
		name := map[uint64]string{732: "0.3us", 1464: "0.61us", 2928: "1.2us"}[hw]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, sys := range []string{bench.SysCopy, bench.SysIdentityStrict} {
					cfg := bench.DefaultConfig(sys, bench.RX, 1, 16384)
					cfg.WindowMs = benchWindowMs
					c := cycles.Default()
					c.IOTLBInvalidateHW = hw
					cfg.Costs = c
					r, err := bench.Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(r.Gbps, metricName(sys, "Gbps"))
				}
			}
		})
	}
}

// BenchmarkAblationNUMARemote quantifies what shadow-buffer stickiness
// saves: copy costs with and without the cross-NUMA penalty applied to
// every copy.
func BenchmarkAblationNUMARemote(b *testing.B) {
	for _, pct := range []uint64{100, 140, 200} {
		name := map[uint64]string{100: "local", 140: "remote_1.4x", 200: "remote_2x"}[pct]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := bench.DefaultConfig(bench.SysCopy, bench.TX, 1, 65536)
				cfg.WindowMs = benchWindowMs
				c := cycles.Default()
				// Force every copy to pay the remote factor by folding
				// it into the base memcpy cost.
				c.MemcpyPerByte = c.MemcpyPerByte * pct / 100
				cfg.Costs = c
				r, err := bench.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.Gbps, "copy_Gbps")
			}
		})
	}
}
