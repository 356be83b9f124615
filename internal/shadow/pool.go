package shadow

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/iommu"
	"repro/internal/iova"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Config parameterizes a shadow buffer pool.
type Config struct {
	// SizeClasses are the shadow buffer sizes, ascending powers of two.
	// The paper's prototype uses {4 KiB, 64 KiB}.
	SizeClasses []int
	// MaxPerClass bounds the metadata array of each (NUMA domain, class);
	// beyond it the fallback path kicks in. The paper uses "a more
	// practical bound of 16K buffers".
	MaxPerClass uint64
	// Cores is the number of CPU cores (≤128, per the 7-bit core field).
	Cores int
	// Domains is the number of NUMA domains.
	Domains int
	// DomainOfCore maps a core to its NUMA domain.
	DomainOfCore func(core int) int
	// DisableFallback hard-bounds the pool: when the metadata array of a
	// (domain, class) is exhausted, Acquire fails with ErrPoolExhausted
	// instead of spilling into the hash-table fallback path. This turns
	// pool pressure into a typed, policy-visible condition — the
	// degradation ladder in internal/core reacts to it — and gives tests
	// and chaos scenarios a deterministic way to starve the pool.
	DisableFallback bool
}

// DefaultConfig returns the paper prototype's configuration.
func DefaultConfig(cores, domains int, domainOf func(int) int) Config {
	return Config{
		SizeClasses:  []int{4096, 65536},
		MaxPerClass:  16384,
		Cores:        cores,
		Domains:      domains,
		DomainOfCore: domainOf,
	}
}

// PoolStats counts pool activity and footprint.
type PoolStats struct {
	Acquires, Releases uint64
	Grows              uint64
	CacheHits          uint64
	FallbackBuffers    uint64
	Trims              uint64
	// BytesByClass is the memory currently backing shadow buffers, per
	// size class (the §6 "memory consumption" measurement).
	BytesByClass []uint64
}

// TotalBytes returns the pool's total shadow-buffer footprint.
func (s PoolStats) TotalBytes() uint64 {
	var t uint64
	for _, b := range s.BytesByClass {
		t += b
	}
	return t
}

// Pool is a per-device shadow DMA buffer pool (paper Table 2 / §5.3).
type Pool struct {
	eng   *sim.Engine
	mem   *mem.Memory
	u     *iommu.IOMMU
	costs *cycles.Costs
	dev   iommu.DeviceID

	cfg Config
	enc *encoding

	// lists[core][class][rights]
	lists [][][3]*freeList
	// cache[core][class][rights]: private per-core cache of chunk
	// remainders (never contended, no lock).
	cache [][][3][]*Meta

	domains []*domainState
	fb      *fallbackState

	stats PoolStats
}

type domainState struct {
	lock  *sim.Spinlock // protects the next-unused metadata index and spare
	metas [][]*Meta     // [class] append-only metadata arrays
	// spare[class] holds index-span bases reclaimed by Trim or by grow's
	// failure unwind, available for reuse. Spans per class have a fixed
	// length (the class's chunks-per-page), so any spare base fits any
	// later reservation of the same class.
	spare [][]uint64
	arena metaArena
}

// metaArena carves Meta structs out of chunked slabs instead of
// allocating each individually: a 128-core machine creates hundreds of
// thousands of Metas during warm-up, and slab-backed headers keep them
// dense in the host heap. Pointers are stable — chunks are never
// reallocated — and the modeled free-list semantics are untouched (a Meta
// is a Meta regardless of where its storage lives).
type metaArena struct {
	chunk []Meta
	used  int
}

const metaChunk = 512

func (a *metaArena) alloc() *Meta {
	if a.used == len(a.chunk) {
		a.chunk = make([]Meta, metaChunk)
		a.used = 0
	}
	m := &a.chunk[a.used]
	a.used++
	return m
}

// reserve claims a span of `chunks` metadata indices for one class,
// preferring reclaimed spans. ok is false when the class is exhausted
// (caller must take the fallback path).
func (ds *domainState) reserve(proc *sim.Proc, class int, chunks, maxPerClass, maxIndex uint64) (base uint64, ok bool) {
	ds.lock.Lock(proc)
	defer ds.lock.Unlock(proc)
	if n := len(ds.spare[class]); n > 0 {
		base = ds.spare[class][n-1]
		ds.spare[class] = ds.spare[class][:n-1]
		return base, true
	}
	base = uint64(len(ds.metas[class]))
	if base+chunks > maxPerClass || base+chunks > maxIndex {
		return 0, false
	}
	for i := uint64(0); i < chunks; i++ {
		ds.metas[class] = append(ds.metas[class], nil) // installed by grow
	}
	return base, true
}

// unreserve returns a reserved span, clearing its slots. A span still at
// the array tail is truncated away; otherwise it is parked on the spare
// list for the next reservation.
func (ds *domainState) unreserve(proc *sim.Proc, class int, base, chunks uint64) {
	ds.lock.Lock(proc)
	defer ds.lock.Unlock(proc)
	for i := uint64(0); i < chunks; i++ {
		ds.metas[class][base+i] = nil
	}
	if uint64(len(ds.metas[class])) == base+chunks {
		ds.metas[class] = ds.metas[class][:base]
		return
	}
	ds.spare[class] = append(ds.spare[class], base)
}

type fallbackState struct {
	lock  *sim.Spinlock
	table map[iommu.IOVA]*Meta
	alloc *iova.MagazineAllocator
	arena metaArena // guarded by lock
}

// lockCosts builds the pool's spinlocks from the cost model.
func lockCosts(c *cycles.Costs) sim.LockCosts {
	return sim.LockCosts{
		Uncontended:      c.LockUncontended,
		HandoffBase:      c.LockHandoffBase,
		HandoffPerWaiter: c.LockHandoffPerWaiter,
	}
}

// NewPool creates the shadow buffer pool for one device.
func NewPool(eng *sim.Engine, m *mem.Memory, u *iommu.IOMMU, costs *cycles.Costs, dev iommu.DeviceID, cfg Config) (*Pool, error) {
	// Validate ordering before newEncoding consumes the classes: the
	// encoding derives per-class bit layouts and must see a sane config.
	for i := 1; i < len(cfg.SizeClasses); i++ {
		if cfg.SizeClasses[i] <= cfg.SizeClasses[i-1] {
			return nil, fmt.Errorf("shadow: size classes must ascend")
		}
	}
	enc, err := newEncoding(cfg.SizeClasses)
	if err != nil {
		return nil, err
	}
	if cfg.Cores < 1 || cfg.Cores > 1<<coreBits {
		return nil, fmt.Errorf("shadow: %d cores outside [1,%d]", cfg.Cores, 1<<coreBits)
	}
	if cfg.MaxPerClass == 0 {
		cfg.MaxPerClass = 16384
	}
	if cfg.DomainOfCore == nil {
		cfg.DomainOfCore = func(int) int { return 0 }
	}
	if cfg.Domains < 1 {
		cfg.Domains = 1
	}
	p := &Pool{
		eng: eng, mem: m, u: u, costs: costs, dev: dev,
		cfg: cfg, enc: enc,
	}
	p.stats.BytesByClass = make([]uint64, len(cfg.SizeClasses))
	p.lists = make([][][3]*freeList, cfg.Cores)
	p.cache = make([][][3][]*Meta, cfg.Cores)
	for c := 0; c < cfg.Cores; c++ {
		p.lists[c] = make([][3]*freeList, len(cfg.SizeClasses))
		p.cache[c] = make([][3][]*Meta, len(cfg.SizeClasses))
		for cl := range cfg.SizeClasses {
			for r := 0; r < 3; r++ {
				p.lists[c][cl][r] = &freeList{
					tailLock: sim.NewSpinlock(
						fmt.Sprintf("shpool-c%d-s%d-r%d", c, cl, r),
						cycles.TagSpinlock, lockCosts(costs)),
				}
			}
		}
	}
	p.domains = make([]*domainState, cfg.Domains)
	for d := range p.domains {
		p.domains[d] = &domainState{
			lock:  sim.NewSpinlock(fmt.Sprintf("shmeta-d%d", d), cycles.TagSpinlock, lockCosts(costs)),
			metas: make([][]*Meta, len(cfg.SizeClasses)),
			spare: make([][]uint64, len(cfg.SizeClasses)),
		}
	}
	// Fallback IOVAs come from the MSB-clear half of the space, via an
	// external scalable allocator [42].
	p.fb = &fallbackState{
		lock:  sim.NewSpinlock("shfb", cycles.TagSpinlock, lockCosts(costs)),
		table: make(map[iommu.IOVA]*Meta),
		alloc: iova.NewMagazine(cfg.Cores, 1, 1<<(shadowFlagShift-mem.PageShift), 64),
	}
	return p, nil
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() PoolStats { return p.stats }

// MaxClass returns the largest shadow buffer size the pool serves; larger
// DMA buffers must use the huge-buffer hybrid (§5.5).
func (p *Pool) MaxClass() int { return p.cfg.SizeClasses[len(p.cfg.SizeClasses)-1] }

// ErrTooBig is returned when the requested size exceeds the largest class.
var ErrTooBig = fmt.Errorf("shadow: buffer exceeds largest size class")

// ErrPoolExhausted is returned when the pool cannot produce a shadow
// buffer: backing memory allocation failed, the fallback IOVA space ran
// dry, or the metadata arrays filled with DisableFallback set. It wraps
// the underlying cause, so errors.Is works on both this sentinel and the
// cause (e.g. mem.ErrInjectedAllocFail). Callers treat it as a pressure
// signal, not a fatal error — see the degradation ladder in internal/core.
var ErrPoolExhausted = fmt.Errorf("shadow: pool exhausted")

// classFor returns the smallest class index fitting size.
func (p *Pool) classFor(size int) (int, error) {
	for i, c := range p.cfg.SizeClasses {
		if size <= c {
			return i, nil
		}
	}
	return 0, ErrTooBig
}

// Acquire takes a shadow buffer of at least size bytes with the given
// device rights from the calling core's pool, associating it with osBuf.
// It returns the buffer's metadata; the IOVA to hand to the device is
// meta.IOVA(). (Table 2: acquire_shadow.)
func (p *Pool) Acquire(proc *sim.Proc, osBuf mem.Buf, size int, rights iommu.Perm) (*Meta, error) {
	if size <= 0 {
		return nil, fmt.Errorf("shadow: acquire of %d bytes", size)
	}
	class, err := p.classFor(size)
	if err != nil {
		return nil, err
	}
	ri, err := rightsIndex(rights)
	if err != nil {
		return nil, err
	}
	core := proc.Core()
	if core < 0 || core >= p.cfg.Cores {
		return nil, fmt.Errorf("shadow: core %d out of range", core)
	}
	proc.ChargeSpan("pool-acquire", cycles.TagCopyMgmt, p.costs.ShadowAcquire)

	// 1) Private cache (chunk remainders) — no synchronization at all.
	if stack := p.cache[core][class][ri]; len(stack) > 0 {
		m := stack[len(stack)-1]
		p.cache[core][class][ri] = stack[:len(stack)-1]
		p.stats.CacheHits++
		return p.take(m, osBuf), nil
	}
	// 2) Owner free list head — lockless.
	if m := p.lists[core][class][ri].pop(); m != nil {
		return p.take(m, osBuf), nil
	}
	// 3) Grow: allocate, map and encode fresh shadow buffers.
	m, err := p.grow(proc, core, class, ri)
	if err != nil {
		return nil, err
	}
	return p.take(m, osBuf), nil
}

func (p *Pool) take(m *Meta, osBuf mem.Buf) *Meta {
	// Counted here, the single success point: a failed grow must not
	// inflate Acquires, or Acquires-Releases "leaks" phantom buffers.
	p.stats.Acquires++
	m.acquired = true
	m.osBuf = osBuf
	return m
}

// grow allocates one page-quantity of shadow buffers on the core's NUMA
// domain, maps them permanently in the IOMMU, and returns one (caching the
// remaining chunks privately). Paper §5.3, "Shadow buffer allocation".
func (p *Pool) grow(proc *sim.Proc, core, class, ri int) (*Meta, error) {
	proc.ChargeSpan("pool-grow", cycles.TagCopyMgmt, p.costs.ShadowGrow)
	p.stats.Grows++
	domain := p.cfg.DomainOfCore(core)
	classSize := p.cfg.SizeClasses[class]

	bytes := classSize
	if bytes < mem.PageSize {
		bytes = mem.PageSize
	}
	pages := bytes / mem.PageSize
	phys, err := p.mem.AllocPages(domain, pages)
	if err != nil {
		return nil, fmt.Errorf("%w: grow class %d: %w", ErrPoolExhausted, class, err)
	}

	chunks := bytes / classSize // >1 only for sub-page classes
	ds := p.domains[domain]

	// Reserve metadata indices (lock-protected next-unused index; grows
	// are infrequent so this lock is uncontended — paper footnote 5).
	base, reserved := ds.reserve(proc, class, uint64(chunks), p.cfg.MaxPerClass, p.enc.maxIndex(class))

	// One buffer is returned; the rest go to the private cache.
	var first *Meta
	if !reserved {
		if p.cfg.DisableFallback {
			_ = p.mem.FreePages(phys, pages)
			return nil, fmt.Errorf("%w: class %d metadata full (fallback disabled)",
				ErrPoolExhausted, class)
		}
		first, err = p.growFallback(proc, core, class, ri, phys, chunks)
		if err != nil {
			_ = p.mem.FreePages(phys, pages)
			return nil, err
		}
	} else {
		// Map the new buffers permanently, BEFORE installing metadata:
		// on failure nothing is visible and the reservation unwinds.
		// Chunked sub-page buffers of one physical page occupy
		// consecutive indices, so their IOVAs tile whole IOVA pages that
		// map to the same physical page — and every IOVA page holds only
		// same-rights shadow buffers (the byte-granularity guarantee).
		span := chunks * classSize
		if err := p.u.Map(p.dev, p.enc.encode(core, ri, class, base), phys, span, rightsOf[ri]); err != nil {
			ds.unreserve(proc, class, base, uint64(chunks))
			_ = p.mem.FreePages(phys, pages)
			return nil, err
		}
		for i := 0; i < chunks; i++ {
			idx := base + uint64(i)
			m := ds.arena.alloc()
			*m = Meta{
				core: core, rights: ri, class: class, index: idx,
				iova:   p.enc.encode(core, ri, class, idx),
				shadow: mem.Buf{Addr: phys + mem.Phys(i*classSize), Size: classSize},
			}
			ds.metas[class][idx] = m
			if i == 0 {
				first = m
			} else {
				p.cache[core][class][ri] = append(p.cache[core][class][ri], m)
			}
		}
	}
	p.stats.BytesByClass[class] += uint64(bytes)
	return first, nil
}

// growFallback services a grow when the metadata array is exhausted: IOVAs
// come from the external allocator and metadata goes to the hash table
// (paper §5.3, fallback half of the IOVA space). Like grow, it returns the
// first new buffer and caches the rest.
func (p *Pool) growFallback(proc *sim.Proc, core, class, ri int, phys mem.Phys, chunks int) (*Meta, error) {
	classSize := p.cfg.SizeClasses[class]
	span := chunks * classSize
	pages := (span + mem.PageSize - 1) / mem.PageSize
	proc.ChargeSpan("pool-grow", cycles.TagCopyMgmt, p.costs.MagazineAlloc)
	base, err := p.fb.alloc.Alloc(core, pages)
	if err != nil {
		return nil, fmt.Errorf("%w: fallback iova: %w", ErrPoolExhausted, err)
	}
	if err := p.u.Map(p.dev, base, phys, span, rightsOf[ri]); err != nil {
		// Return the IOVA range, or the allocator leaks it forever.
		_ = p.fb.alloc.Free(core, base, pages)
		return nil, err
	}
	var first *Meta
	p.fb.lock.Lock(proc)
	for i := 0; i < chunks; i++ {
		m := p.fb.arena.alloc()
		*m = Meta{
			core: core, rights: ri, class: class, isFB: true,
			iova:   base + iommu.IOVA(i*classSize),
			shadow: mem.Buf{Addr: phys + mem.Phys(i*classSize), Size: classSize},
		}
		p.fb.table[m.iova] = m
		if i == 0 {
			first = m
		} else {
			p.cache[core][class][ri] = append(p.cache[core][class][ri], m)
		}
	}
	p.fb.lock.Unlock(proc)
	p.stats.FallbackBuffers += uint64(chunks)
	return first, nil
}

// Find locates the metadata of the shadow buffer whose base IOVA is addr,
// in O(1) via the IOVA encoding (Table 2: find_shadow).
func (p *Pool) Find(proc *sim.Proc, addr iommu.IOVA) (*Meta, error) {
	proc.ChargeSpan("pool-find", cycles.TagCopyMgmt, p.costs.ShadowFind)
	if !IsShadow(addr) {
		// Fallback half: external hash table.
		p.fb.lock.Lock(proc)
		m := p.fb.table[addr]
		p.fb.lock.Unlock(proc)
		if m == nil {
			return nil, fmt.Errorf("shadow: no fallback buffer at %#x", uint64(addr))
		}
		return m, nil
	}
	d, err := p.enc.decode(addr)
	if err != nil {
		return nil, err
	}
	if d.core >= p.cfg.Cores {
		return nil, fmt.Errorf("shadow: IOVA %#x encodes core %d out of range", uint64(addr), d.core)
	}
	ds := p.domains[p.cfg.DomainOfCore(d.core)]
	if d.class >= len(ds.metas) || d.index >= uint64(len(ds.metas[d.class])) {
		return nil, fmt.Errorf("shadow: IOVA %#x has no metadata", uint64(addr))
	}
	m := ds.metas[d.class][d.index]
	if m == nil {
		return nil, fmt.Errorf("shadow: IOVA %#x metadata reserved but unset", uint64(addr))
	}
	return m, nil
}

// Release returns a shadow buffer to its owner core's free list. Shadow
// buffers are sticky: wherever they are released, they go home, keeping
// them NUMA-local and their IOMMU mapping unchanged forever (Table 2:
// release_shadow).
func (p *Pool) Release(proc *sim.Proc, m *Meta) {
	proc.ChargeSpan("pool-release", cycles.TagCopyMgmt, p.costs.ShadowRelease)
	p.stats.Releases++
	m.acquired = false
	m.osBuf = mem.Buf{}
	p.lists[m.core][m.class][m.rights].push(proc, m)
}

// AcquireShadow is the exact Table 2 API: it returns the IOVA directly.
func (p *Pool) AcquireShadow(proc *sim.Proc, osBuf mem.Buf, size int, rights iommu.Perm) (iommu.IOVA, error) {
	m, err := p.Acquire(proc, osBuf, size, rights)
	if err != nil {
		return 0, err
	}
	return m.iova, nil
}

// FindShadow is the exact Table 2 API: it returns the OS buffer associated
// with the shadow buffer at addr.
func (p *Pool) FindShadow(proc *sim.Proc, addr iommu.IOVA) (mem.Buf, error) {
	m, err := p.Find(proc, addr)
	if err != nil {
		return mem.Buf{}, err
	}
	return m.osBuf, nil
}

// ReleaseShadow is the exact Table 2 API, releasing by IOVA.
func (p *Pool) ReleaseShadow(proc *sim.Proc, addr iommu.IOVA) error {
	m, err := p.Find(proc, addr)
	if err != nil {
		return err
	}
	p.Release(proc, m)
	return nil
}

// Trim releases the free shadow buffers of page-or-larger classes on one
// core back to the system under memory pressure: their mappings are
// destroyed with a strict IOTLB invalidation (paper §5.3, "Memory
// consumption"). Sub-page chunked classes are skipped because sibling
// chunks may still be live.
func (p *Pool) Trim(proc *sim.Proc, core int) (freed uint64) {
	p.stats.Trims++
	for class, classSize := range p.cfg.SizeClasses {
		if classSize < mem.PageSize {
			continue
		}
		for ri := 0; ri < 3; ri++ {
			for _, m := range p.lists[core][class][ri].drain(proc) {
				pages := classSize / mem.PageSize
				if err := p.u.Unmap(p.dev, m.iova, classSize); err != nil {
					// Still mapped and still usable: push it back on
					// the free list instead of stranding it forever
					// unreachable (drained but never re-listed).
					p.lists[core][class][ri].push(proc, m)
					continue
				}
				q := p.u.Queue
				q.Lock.Lock(proc)
				done := q.SubmitPages(proc, p.dev, m.iova.Page(), uint64(pages))
				q.WaitRecover(proc, done)
				q.Lock.Unlock(proc)
				// Once unmapped the buffer has left the pool whatever
				// FreePages says, so the footprint shrinks either way;
				// only pages actually returned count as freed.
				p.stats.BytesByClass[class] -= uint64(classSize)
				if err := p.mem.FreePages(m.shadow.Addr, pages); err == nil {
					freed += uint64(classSize)
				}
				if m.isFB {
					p.fb.lock.Lock(proc)
					delete(p.fb.table, m.iova)
					p.fb.lock.Unlock(proc)
					_ = p.fb.alloc.Free(core, m.iova, pages)
				} else {
					// Recycle the metadata index so a later grow can
					// reuse it (a nil-and-forget slot is a slow leak of
					// the bounded per-class index space).
					ds := p.domains[p.cfg.DomainOfCore(m.core)]
					ds.unreserve(proc, m.class, m.index, 1)
				}
			}
		}
	}
	return freed
}
