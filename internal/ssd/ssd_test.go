package ssd

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/dmaapi"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/sim"
)

type rig struct {
	eng    *sim.Engine
	m      *mem.Memory
	u      *iommu.IOMMU
	env    *dmaapi.Env
	dev    *SSD
	k      *mem.Kmalloc
	mapper dmaapi.Mapper
	bd     *BlockDriver
}

func newRig(t *testing.T, system string, queues int) *rig {
	t.Helper()
	eng := sim.NewEngine()
	m := mem.New(1)
	costs := cycles.Default()
	u := iommu.New(eng, m, costs)
	env := &dmaapi.Env{Eng: eng, Mem: m, IOMMU: u, Costs: costs, Dev: 7, Cores: queues}
	var mapper dmaapi.Mapper
	var err error
	switch system {
	case "copy":
		mapper, err = core.NewShadowMapper(env)
	case "noiommu":
		mapper = dmaapi.NewNoIOMMU(env)
	case "strict":
		mapper = dmaapi.NewLinux(env, false)
	}
	if err != nil {
		t.Fatal(err)
	}
	dev := New(eng, u, Config{Dev: 7, Queues: queues, Costs: costs})
	k := mem.NewKmalloc(m, nil)
	return &rig{eng: eng, m: m, u: u, env: env, dev: dev, k: k, mapper: mapper,
		bd: NewBlockDriver(env, mapper, dev, k)}
}

func TestReadWriteRoundTripThroughFlash(t *testing.T) {
	for _, sys := range []string{"noiommu", "copy", "strict"} {
		r := newRig(t, sys, 1)
		q := r.dev.Queue(0)
		buf, _ := r.k.Alloc(0, 8192)
		content := bytes.Repeat([]byte("flash-block-data"), 512) // 8 KiB
		r.eng.Spawn("blk", 0, 0, func(p *sim.Proc) {
			// Write 8 KiB at LBA 10.
			if err := r.m.Write(buf.Addr, content); err != nil {
				t.Error(err)
				return
			}
			addr, err := r.mapper.Map(p, buf, dmaapi.ToDevice)
			if err != nil {
				t.Error(err)
				return
			}
			q.Submit(p, Command{Op: OpWrite, LBA: 10, Addr: addr, Len: 8192, Tag: "w"})
			q.CompCond.WaitUntil(p, q.HasComp)
			c := q.DrainComp()[0]
			if c.Status != nil {
				t.Errorf("%s: write failed: %v", sys, c.Status)
			}
			r.mapper.Unmap(p, addr, buf.Size, dmaapi.ToDevice)

			// Read it back into a scrubbed buffer.
			r.m.Fill(buf, 0)
			addr, err = r.mapper.Map(p, buf, dmaapi.FromDevice)
			if err != nil {
				t.Error(err)
				return
			}
			q.Submit(p, Command{Op: OpRead, LBA: 10, Addr: addr, Len: 8192, Tag: "r"})
			q.CompCond.WaitUntil(p, q.HasComp)
			c = q.DrainComp()[0]
			if c.Status != nil {
				t.Errorf("%s: read failed: %v", sys, c.Status)
			}
			r.mapper.Unmap(p, addr, buf.Size, dmaapi.FromDevice)
			got, _ := r.m.Snapshot(buf)
			if !bytes.Equal(got, content) {
				t.Errorf("%s: flash round trip corrupted data", sys)
			}
		})
		r.eng.Run(1 << 40)
		r.eng.Stop()
		if r.dev.Reads != 1 || r.dev.Writes != 1 {
			t.Errorf("%s: device stats %d/%d", sys, r.dev.Reads, r.dev.Writes)
		}
	}
}

func TestSSDFaultsOnUnmappedBuffer(t *testing.T) {
	r := newRig(t, "strict", 1)
	q := r.dev.Queue(0)
	errs := 0
	r.eng.Spawn("blk", 0, 0, func(p *sim.Proc) {
		q.Submit(p, Command{Op: OpRead, LBA: 0, Addr: 0xdead000, Len: 4096, Tag: nil})
		q.CompCond.WaitUntil(p, q.HasComp)
		for _, c := range q.DrainComp() {
			if c.Status != nil {
				errs++
			}
		}
	})
	r.eng.Run(1 << 40)
	r.eng.Stop()
	if errs != 1 || r.dev.Faults != 1 {
		t.Errorf("errs=%d faults=%d", errs, r.dev.Faults)
	}
}

func TestQueueDepthEnforced(t *testing.T) {
	r := newRig(t, "noiommu", 1)
	r.dev.cfg.QueueDepth = 4
	q := r.dev.Queue(0)
	buf, _ := r.k.Alloc(0, 4096)
	r.eng.Spawn("blk", 0, 0, func(p *sim.Proc) {
		addr, _ := r.mapper.Map(p, buf, dmaapi.FromDevice)
		n := 0
		for q.Submit(p, Command{Op: OpRead, LBA: 0, Addr: addr, Len: 4096}) {
			n++
		}
		if n != 4 {
			t.Errorf("accepted %d commands, want 4", n)
		}
	})
	r.eng.Run(1 << 30)
	r.eng.Stop()
}

func TestWorkloadRunsAndVerifies(t *testing.T) {
	r := newRig(t, "copy", 1)
	// Prefill flash so 100%-read verification is deterministic.
	for lba := uint64(0); lba < 256; lba++ {
		blk := make([]byte, BlockSize)
		for i := range blk {
			blk[i] = byte(lba) ^ byte(i)
		}
		r.dev.Preload(lba, blk)
	}
	var st WorkloadStats
	r.eng.Spawn("blk", 0, 0, func(p *sim.Proc) {
		cfg := WorkloadConfig{IOSize: 4096, ReadPct: 100, Depth: 8, Blocks: 256, Seed: 1, Verify: true}
		if err := r.bd.RunWorkload(p, 0, cfg, &st); err != nil {
			t.Error(err)
		}
	})
	r.eng.Run(cycles.FromMillis(5))
	r.eng.Stop()
	if st.Reads < 100 {
		t.Errorf("reads = %d", st.Reads)
	}
	if st.Errors != 0 {
		t.Errorf("errors = %d", st.Errors)
	}
}

func TestThroughputEnvelopeRespected(t *testing.T) {
	// 4K random reads must not exceed the configured 850K IOPS even with
	// many queues hammering the device.
	r := newRig(t, "noiommu", 4)
	var stats [4]WorkloadStats
	for c := 0; c < 4; c++ {
		c := c
		r.eng.Spawn("blk", c, 0, func(p *sim.Proc) {
			cfg := WorkloadConfig{IOSize: 4096, ReadPct: 100, Depth: 32, Blocks: 4096, Seed: 7}
			_ = r.bd.RunWorkload(p, c, cfg, &stats[c])
		})
	}
	window := cycles.FromMillis(10)
	r.eng.Run(window)
	r.eng.Stop()
	var ops uint64
	for _, s := range stats {
		ops += s.Reads
	}
	iops := cycles.PerSec(ops, window)
	if iops > 900_000 {
		t.Errorf("IOPS = %.0f exceeds the device envelope", iops)
	}
	if iops < 500_000 {
		t.Errorf("IOPS = %.0f too low for a 4-queue read workload", iops)
	}
}

func TestHugeIOUsesHybridPath(t *testing.T) {
	r := newRig(t, "copy", 1)
	var st WorkloadStats
	r.eng.Spawn("blk", 0, 0, func(p *sim.Proc) {
		cfg := WorkloadConfig{IOSize: 256 * 1024, ReadPct: 50, Depth: 4, Blocks: 1024, Seed: 3}
		_ = r.bd.RunWorkload(p, 0, cfg, &st)
	})
	r.eng.Run(cycles.FromMillis(10))
	r.eng.Stop()
	ms := r.mapper.Stats()
	if ms.HybridMaps == 0 {
		t.Error("256 KiB I/O should engage the hybrid path")
	}
	if st.Errors != 0 {
		t.Errorf("errors = %d", st.Errors)
	}
	// Huge buffers are NOT copied wholesale: copied bytes must be far
	// below the bytes transferred.
	if ms.BytesCopied > st.Bytes/10 {
		t.Errorf("copied %d of %d transferred bytes; hybrid should copy only head/tail",
			ms.BytesCopied, st.Bytes)
	}
}

// TestStagingReuseNeverLeaksBytes drives the device's shared staging
// buffer through a write, a read that spans a written and a never-written
// block, and a short overwrite: never-written flash must read as zeros
// and a short write must not keep the old block's tail.
func TestStagingReuseNeverLeaksBytes(t *testing.T) {
	r := newRig(t, "noiommu", 1)
	q := r.dev.Queue(0)
	buf, _ := r.k.Alloc(0, 8192)
	content := bytes.Repeat([]byte{0xa5}, 8192)
	r.eng.Spawn("blk", 0, 0, func(p *sim.Proc) {
		do := func(op Op, lba uint64, n int) error {
			dir := dmaapi.ToDevice
			if op == OpRead {
				dir = dmaapi.FromDevice
			}
			addr, err := r.mapper.Map(p, buf, dir)
			if err != nil {
				return err
			}
			q.Submit(p, Command{Op: op, LBA: lba, Addr: addr, Len: n})
			q.CompCond.WaitUntil(p, q.HasComp)
			if c := q.DrainComp()[0]; c.Status != nil {
				return c.Status
			}
			return r.mapper.Unmap(p, addr, buf.Size, dir)
		}
		if err := r.m.Write(buf.Addr, content); err != nil {
			t.Error(err)
			return
		}
		// Write blocks 10 and 11, then read block 11 and never-written 12.
		if err := do(OpWrite, 10, 8192); err != nil {
			t.Error(err)
			return
		}
		if err := do(OpRead, 11, 8192); err != nil {
			t.Error(err)
			return
		}
		got, _ := r.m.Snapshot(buf)
		want := append(bytes.Repeat([]byte{0xa5}, BlockSize), make([]byte, BlockSize)...)
		if !bytes.Equal(got, want) {
			t.Error("read of a never-written block returned staged bytes")
		}
		if err := r.m.Fill(mem.Buf{Addr: buf.Addr, Size: 100}, 0x3c); err != nil {
			t.Error(err)
			return
		}
		if err := do(OpWrite, 10, 100); err != nil {
			t.Error(err)
		}
	})
	r.eng.Run(1 << 40)
	r.eng.Stop()
	want := append(bytes.Repeat([]byte{0x3c}, 100), make([]byte, BlockSize-100)...)
	if !bytes.Equal(r.dev.BlockAt(10), want) {
		t.Error("short overwrite kept the block's old tail")
	}
}
