package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/daemon"
	"repro/internal/dmaapi"
	"repro/internal/iommu"
	"repro/internal/iova"
	"repro/internal/mem"
	"repro/internal/nic"
	"repro/internal/report"
	"repro/internal/shadow"
	"repro/internal/sim"
	"repro/internal/store"
)

// A probe times calls into one layer's public functions on one goroutine.
// Its name ends in the unit of the per-operation time it reports (_ns or
// _us); the allocation count per operation is reported beside it.
type probe struct {
	name string
	n    int // operations per repetition at full size
	// prepare builds the state for n operations, untimed; work then runs
	// them and returns how many operations it did.
	prepare func(env *probeEnv, n int) (work func() (ops int, err error), err error)
}

// probeEnv is what the store and report probes work on.
type probeEnv struct {
	dir      string // scratch directory for store entries
	artifact []byte // the paper-smoke reference artifact
}

const probeReps = 5

// probeUnit is the time unit a probe's name ends in.
func probeUnit(name string) string { return name[strings.LastIndexByte(name, '_')+1:] }

// allocsName names the allocations-per-op metric of a probe.
func allocsName(name string) string { return name[:strings.LastIndexByte(name, '_')] + "_allocs" }

// runProbes measures every probe and returns the median over probeReps
// repetitions of its time and allocations per operation. Repetitions go
// round-robin over the probes, so a burst of load from elsewhere on the
// host lands in one repetition of many probes rather than in every
// repetition of one. quick shrinks every operation count, for tests.
func runProbes(env *probeEnv, quick bool, tr *tracer, parent int64) (map[string]float64, error) {
	times := make([][]float64, len(probes))
	allocs := make([][]float64, len(probes))
	for rep := 0; rep < probeReps; rep++ {
		for i, p := range probes {
			n := p.n
			if quick {
				n = max(1, n/50)
			}
			start := time.Now()
			per, perAllocs, err := measureProbe(env, p, n)
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.name, err)
			}
			tr.record(tr.newID(), parent, p.name, "probe", 0, start, time.Now(), nil)
			times[i] = append(times[i], per)
			allocs[i] = append(allocs[i], perAllocs)
		}
	}
	out := make(map[string]float64, 2*len(probes))
	for i, p := range probes {
		out[p.name] = median(times[i])
		out[allocsName(p.name)] = median(allocs[i])
	}
	return out, nil
}

// measureProbe runs one repetition of n operations and returns the time
// per operation, in the probe's unit, and the heap allocations per
// operation.
func measureProbe(env *probeEnv, p probe, n int) (float64, float64, error) {
	work, err := p.prepare(env, n)
	if err != nil {
		return 0, 0, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	ops, err := work()
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, 0, err
	}
	if ops <= 0 {
		return 0, 0, fmt.Errorf("did no operations")
	}
	per := float64(d.Nanoseconds()) / float64(ops)
	if probeUnit(p.name) == "us" {
		per /= 1000
	}
	return per, float64(after.Mallocs-before.Mallocs) / float64(ops), nil
}

// onProc runs body n times on one simulated core of e.
func onProc(e *sim.Engine, n int, body func(p *sim.Proc, i int) error) func() (int, error) {
	var err error
	e.Spawn("probe", 0, 0, func(p *sim.Proc) {
		for i := 0; i < n && err == nil; i++ {
			err = body(p, i)
		}
	})
	return func() (int, error) {
		e.Run(^uint64(0))
		e.Stop()
		return n, err
	}
}

// machine assembles a one-core evaluation machine for a protection system.
func machine(system string, cores int) (*bench.Machine, error) {
	return bench.NewMachine(bench.DefaultConfig(system, bench.RX, cores, 1500))
}

// mapUnmap maps and unmaps buf through a DMA-API mapper n times.
func mapUnmap(m *bench.Machine, mapper dmaapi.Mapper, buf mem.Buf, dir dmaapi.Dir, n int) func() (int, error) {
	return onProc(m.Eng, n, func(p *sim.Proc, _ int) error {
		a, err := mapper.Map(p, buf, dir)
		if err != nil {
			return err
		}
		return mapper.Unmap(p, a, buf.Size, dir)
	})
}

// systemMapUnmap is a dmaapi probe: a 1500-byte RX buffer through the
// named system's mapper.
func systemMapUnmap(system string) func(*probeEnv, int) (func() (int, error), error) {
	return func(_ *probeEnv, n int) (func() (int, error), error) {
		m, err := machine(system, 1)
		if err != nil {
			return nil, err
		}
		buf, err := m.Kmal.Alloc(0, 1500)
		if err != nil {
			return nil, err
		}
		return mapUnmap(m, m.Mapper, buf, dmaapi.FromDevice, n), nil
	}
}

// copyMapUnmap is a core probe: a size-byte TX buffer through the
// DMA-shadowing mapper, which copies it into a shadow buffer on map.
func copyMapUnmap(size int) func(*probeEnv, int) (func() (int, error), error) {
	return func(_ *probeEnv, n int) (func() (int, error), error) {
		m, err := machine(bench.SysCopy, 1)
		if err != nil {
			return nil, err
		}
		sm, err := core.NewShadowMapper(m.Env)
		if err != nil {
			return nil, err
		}
		addr, err := m.Mem.AllocPages(0, (size+mem.PageSize-1)/mem.PageSize)
		if err != nil {
			return nil, err
		}
		// Written data, so the copy moves real bytes.
		buf := mem.Buf{Addr: addr, Size: size}
		if err := m.Mem.Fill(buf, 0xab); err != nil {
			return nil, err
		}
		return mapUnmap(m, sm, buf, dmaapi.ToDevice, n), nil
	}
}

// rxFrames is a netstack probe: host ns per simulated frame of a 1-core
// 1500-byte RX stream, n simulated microseconds long.
func rxFrames(system string) func(*probeEnv, int) (func() (int, error), error) {
	return func(_ *probeEnv, n int) (func() (int, error), error) {
		cfg := bench.DefaultConfig(system, bench.RX, 1, 1500)
		cfg.WindowMs = float64(n) / 1000
		return func() (int, error) {
			r, err := bench.Run(cfg)
			return int(r.Ops), err
		}, nil
	}
}

// loop runs op n times.
func loop(n int, op func(i int) error) func() (int, error) {
	return func() (int, error) {
		for i := 0; i < n; i++ {
			if err := op(i); err != nil {
				return i, err
			}
		}
		return n, nil
	}
}

// probes is every layer probe, in ARCHITECTURE.md order from the engine
// up to the service layer.
var probes = []probe{
	{"sim.dispatch_ns", 25600, func(_ *probeEnv, n int) (func() (int, error), error) {
		// 64 procs with co-prime slice lengths: nearly every yield is a
		// cross-proc dispatch, the many-core scheduling pattern.
		e := sim.NewEngine()
		const procs = 64
		for c := 0; c < procs; c++ {
			slice := uint64(7 + c%13)
			e.Spawn("w", c, 0, func(p *sim.Proc) {
				for i := 0; i < n/procs+1; i++ {
					p.Work("w", slice)
				}
			})
		}
		return func() (int, error) {
			e.Run(^uint64(0))
			e.Stop()
			return int(e.Dispatches()), nil
		}, nil
	}},
	{"sim.fence_ns", 200000, func(_ *probeEnv, n int) (func() (int, error), error) {
		e := sim.NewEngine()
		return onProc(e, n, func(p *sim.Proc, _ int) error { p.Work("w", 10); return nil }), nil
	}},
	{"sim.spinlock_ns", 16000, func(_ *probeEnv, n int) (func() (int, error), error) {
		c := cycles.Default()
		l := sim.NewSpinlock("probe", "lock", sim.LockCosts{
			Uncontended: c.LockUncontended, HandoffBase: c.LockHandoffBase, HandoffPerWaiter: c.LockHandoffPerWaiter,
		})
		e := sim.NewEngine()
		const procs = 16
		for core := 0; core < procs; core++ {
			e.Spawn("w", core, 0, func(p *sim.Proc) {
				for i := 0; i < n/procs+1; i++ {
					l.Lock(p)
					p.Work("cs", 50)
					l.Unlock(p)
					p.Work("out", 200)
				}
			})
		}
		return func() (int, error) {
			e.Run(^uint64(0))
			e.Stop()
			return int(l.Acquires), nil
		}, nil
	}},
	{"mem.new_touch_us", 40, func(_ *probeEnv, n int) (func() (int, error), error) {
		// A fresh two-domain memory plus a first write to 256 pages: the
		// page materialization every simulated machine pays at boot.
		b := make([]byte, 64)
		return loop(n, func(int) error {
			m := mem.New(2)
			addr, err := m.AllocPages(0, 256)
			if err != nil {
				return err
			}
			for pg := 0; pg < 256; pg++ {
				if err := m.Write(addr+mem.Phys(pg*mem.PageSize), b); err != nil {
					return err
				}
			}
			return nil
		}), nil
	}},
	{"mem.copy_64k_ns", 4000, func(_ *probeEnv, n int) (func() (int, error), error) {
		m := mem.New(1)
		src, err := m.AllocPages(0, 16)
		if err != nil {
			return nil, err
		}
		dst, err := m.AllocPages(0, 16)
		if err != nil {
			return nil, err
		}
		if err := m.Fill(mem.Buf{Addr: src, Size: 16 * mem.PageSize}, 0xab); err != nil {
			return nil, err
		}
		return loop(n, func(int) error { return m.Copy(dst, src, 16*mem.PageSize) }), nil
	}},
	{"mem.access_4k_ns", 40000, func(_ *probeEnv, n int) (func() (int, error), error) {
		m := mem.New(1)
		addr, err := m.AllocPages(0, 1)
		if err != nil {
			return nil, err
		}
		buf := make([]byte, mem.PageSize)
		return loop(n, func(int) error {
			if err := m.Write(addr, buf); err != nil {
				return err
			}
			return m.Read(addr, buf)
		}), nil
	}},
	{"mem.kmalloc_ns", 100000, func(_ *probeEnv, n int) (func() (int, error), error) {
		k := mem.NewKmalloc(mem.New(1), nil)
		return loop(n, func(int) error {
			b, err := k.Alloc(0, 1500)
			if err != nil {
				return err
			}
			return k.Free(b)
		}), nil
	}},
	{"iommu.dma_write_4k_ns", 40000, func(_ *probeEnv, n int) (func() (int, error), error) {
		m := mem.New(1)
		u := iommu.New(sim.NewEngine(), m, cycles.Default())
		phys, err := m.AllocPages(0, 1)
		if err != nil {
			return nil, err
		}
		const va = iommu.IOVA(0x1000_0000)
		if err := u.Map(1, va, phys, mem.PageSize, iommu.PermRW); err != nil {
			return nil, err
		}
		buf := make([]byte, mem.PageSize)
		return loop(n, func(int) error {
			if r := u.DMAWrite(1, va, buf); r.Fault != nil {
				return r.Fault
			}
			return nil
		}), nil
	}},
	{"iommu.translate_miss_ns", 100000, func(_ *probeEnv, n int) (func() (int, error), error) {
		// A cyclic sweep over 1024 mapped pages thrashes the 256-entry
		// IOTLB, so every translation walks the page table.
		const pages = 1024
		m := mem.New(1)
		u := iommu.New(sim.NewEngine(), m, cycles.Default())
		phys, err := m.AllocPages(0, pages)
		if err != nil {
			return nil, err
		}
		const va = iommu.IOVA(0x1000_0000)
		if err := u.Map(1, va, phys, pages*mem.PageSize, iommu.PermRW); err != nil {
			return nil, err
		}
		return loop(n, func(i int) error {
			if _, _, f := u.Translate(1, va+iommu.IOVA(i%pages*mem.PageSize), iommu.PermRead); f != nil {
				return f
			}
			return nil
		}), nil
	}},
	{"iommu.map_unmap_ns", 40000, func(_ *probeEnv, n int) (func() (int, error), error) {
		m := mem.New(1)
		u := iommu.New(sim.NewEngine(), m, cycles.Default())
		phys, err := m.AllocPages(0, 1)
		if err != nil {
			return nil, err
		}
		const va = iommu.IOVA(0x1000_0000)
		return loop(n, func(int) error {
			if err := u.Map(1, va, phys, mem.PageSize, iommu.PermRW); err != nil {
				return err
			}
			return u.Unmap(1, va, mem.PageSize)
		}), nil
	}},
	{"iova.tree_alloc_free_ns", 100000, func(_ *probeEnv, n int) (func() (int, error), error) {
		a := iova.NewTree(0, 1<<24)
		return loop(n, func(int) error {
			v, err := a.Alloc(0, 1)
			if err != nil {
				return err
			}
			return a.Free(0, v, 1)
		}), nil
	}},
	{"iova.magazine_alloc_free_ns", 200000, func(_ *probeEnv, n int) (func() (int, error), error) {
		a := iova.NewMagazine(1, 0, 1<<24, 64)
		return loop(n, func(int) error {
			v, err := a.Alloc(0, 1)
			if err != nil {
				return err
			}
			return a.Free(0, v, 1)
		}), nil
	}},
	{"dmaapi.strict_map_unmap_ns", 20000, systemMapUnmap(bench.SysLinuxStrict)},
	{"dmaapi.defer_map_unmap_ns", 20000, systemMapUnmap(bench.SysLinuxDefer)},
	{"dmaapi.noiommu_map_unmap_ns", 100000, systemMapUnmap(bench.SysNoIOMMU)},
	{"shadow.acquire_release_ns", 40000, func(_ *probeEnv, n int) (func() (int, error), error) {
		e := sim.NewEngine()
		m := mem.New(1)
		u := iommu.New(e, m, cycles.Default())
		pool, err := shadow.NewPool(e, m, u, cycles.Default(), 1, shadow.DefaultConfig(1, 1, func(int) int { return 0 }))
		if err != nil {
			return nil, err
		}
		osBuf := mem.Buf{Addr: 0x1000, Size: 1500}
		return onProc(e, n, func(p *sim.Proc, _ int) error {
			meta, err := pool.Acquire(p, osBuf, 1500, iommu.PermWrite)
			if err != nil {
				return err
			}
			pool.Release(p, meta)
			return nil
		}), nil
	}},
	{"core.map_unmap_1500_ns", 20000, copyMapUnmap(1500)},
	{"core.map_unmap_64k_ns", 4000, copyMapUnmap(64 << 10)},
	{"nic.ring_post_pop_ns", 400000, func(_ *probeEnv, n int) (func() (int, error), error) {
		r := nic.NewRing(256)
		d := nic.Desc{Addr: 0x1000, Len: 1500}
		return loop(n, func(int) error {
			if !r.Post(d) {
				return fmt.Errorf("ring full")
			}
			if _, ok := r.Pop(); !ok {
				return fmt.Errorf("ring empty")
			}
			return nil
		}), nil
	}},
	{"netstack.rx_frame_ns", 50000, rxFrames(bench.SysNoIOMMU)},
	{"netstack.rx_frame_copy_ns", 50000, rxFrames(bench.SysCopy)},
	{"bench.new_machine_us", 100, func(_ *probeEnv, n int) (func() (int, error), error) {
		return loop(n, func(int) error { _, err := machine(bench.SysCopy, 16); return err }), nil
	}},
	{"campaign.cell_us", 20, func(_ *probeEnv, n int) (func() (int, error), error) {
		return loop(n, func(int) error {
			_, err := campaign.Run(bench.SysLinuxStrict, "subpage-harvest", 1)
			return err
		}), nil
	}},
	{"store.get_us", 400, func(env *probeEnv, n int) (func() (int, error), error) {
		st, key, err := probeStore(env)
		if err != nil {
			return nil, err
		}
		if err := st.Put(key, env.artifact); err != nil {
			return nil, err
		}
		return loop(n, func(int) error { _, err := st.Get(key); return err }), nil
	}},
	{"store.put_us", 200, func(env *probeEnv, n int) (func() (int, error), error) {
		st, _, err := probeStore(env)
		if err != nil {
			return nil, err
		}
		// Distinct keys, so every Put writes a new entry.
		keys := make([]string, n)
		for i := range keys {
			if keys[i], err = store.Key(i); err != nil {
				return nil, err
			}
		}
		return loop(n, func(i int) error { return st.Put(keys[i], env.artifact) }), nil
	}},
	{"report.decode_us", 40, func(env *probeEnv, n int) (func() (int, error), error) {
		return loop(n, func(int) error {
			_, err := report.Decode(bytes.NewReader(env.artifact))
			return err
		}), nil
	}},
	{"report.encode_us", 40, func(env *probeEnv, n int) (func() (int, error), error) {
		a, err := report.Decode(bytes.NewReader(env.artifact))
		if err != nil {
			return nil, err
		}
		return loop(n, func(int) error { return a.Encode(io.Discard) }), nil
	}},
	{"daemon.normalize_key_us", 20000, func(_ *probeEnv, n int) (func() (int, error), error) {
		spec := daemon.RunSpec{Tool: "reproduce", WindowMs: 1, SkipSensitivity: true, Experiments: "all"}
		return loop(n, func(int) error {
			ns, err := spec.Normalize()
			if err != nil {
				return err
			}
			_, err = ns.Key("probe")
			return err
		}), nil
	}},
}

// probeStore opens a fresh store for one repetition and returns a valid
// key for it.
func probeStore(env *probeEnv) (*store.Store, string, error) {
	dir, err := os.MkdirTemp(env.dir, "store-")
	if err != nil {
		return nil, "", err
	}
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, "", err
	}
	key, err := store.Key("probe")
	return st, key, err
}
