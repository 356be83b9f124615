// Package tenant models a DPDK-style userspace kernel-bypass datapath:
// applications own per-tenant RX queue pairs on one shared NIC and post
// descriptors directly, with no kernel and no per-packet syscall in the
// way. The protection question therefore shifts from the paper's "how
// does the kernel map/unmap DMA buffers" to "how do nontrusting tenants
// share one device safely" (ROADMAP item 2; CAPIO and
// Beadle-Scott-Criswell in PAPERS.md).
//
// Three schemes share one machine model:
//
//   - unprotected: the shared queue baseline. Descriptors carry raw
//     physical addresses and the device (in IOMMU passthrough) executes
//     them verbatim — any tenant can DMA anywhere.
//   - capability: CAPIO-style capability-checked descriptors. Each
//     tenant's memory is granted once, at registration, into a private
//     IOVA window of the shared device's domain; descriptors carry
//     (window address, length, grant epoch) and a trusted arbiter
//     validates them against the posting tenant's grant table before the
//     DMA is issued. Revocation bumps the epoch and unmaps the window,
//     so stale (replayed) descriptors fail validation.
//   - shadow-copy: the paper's copy design scoped per tenant. Tenant
//     memory is never device-visible; the device writes into per-tenant
//     shadow rings (mapped once, permanently — no per-packet map/unmap)
//     and trusted datapath cores bounds-check the tenant-posted
//     destination and copy frames out at Costs.Memcpy rates.
//
// A hostile tenant mounted from the attack-program library (arbitrary
// scan, ring overrun, stale-descriptor replay — internal/campaign's
// payload taxonomy at tenant granularity) provides the isolation ground
// truth: every benign tenant owns a sentinel-filled private page
// (campaign.SentinelByte), and a scheme is breached iff a sentinel byte
// changes. Violating tenants are quarantined by internal/resilience at
// tenant granularity: each tenant is a pseudo iommu.DeviceID, rejected
// descriptors feed Supervisor.Observe, and the datapath drops a blocked
// tenant's traffic at the root.
//
// Matrix (isolation cells) and Sweep (goodput vs tenant count, up to
// thousands of queues) fan independent per-cell machines across
// bench.Farm; cmd/tenantbench emits the deterministic artifact that the
// tenant gate of ci/gates.json holds exactly to ci/tenant-baseline.json.
package tenant

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/resilience"
	"repro/internal/sim"
)

// Scheme names (the "system" axis of the tenant tables).
const (
	SchemeUnprotected = "unprotected"
	SchemeCapability  = "capability"
	SchemeShadowCopy  = "shadow-copy"
)

// Schemes returns the protection schemes in canonical table order.
func Schemes() []string {
	return []string{SchemeUnprotected, SchemeCapability, SchemeShadowCopy}
}

// IsScheme reports whether name is a known protection scheme.
func IsScheme(name string) bool {
	for _, s := range Schemes() {
		if s == name {
			return true
		}
	}
	return false
}

const (
	// nicDev is the one shared NIC all tenant queues hang off.
	nicDev = iommu.DeviceID(1)
	// tenantDevBase maps tenant IDs onto pseudo device IDs so the
	// resilience supervisor and the IOMMU's root block bit quarantine at
	// tenant granularity without any changes to either package.
	tenantDevBase = iommu.DeviceID(0x1000)

	// capWinBase/capWinStride lay out the per-tenant capability windows
	// in the shared device's IOVA space: tenant i owns
	// [capWinBase+i*stride, +stride). Deterministic by design — a hostile
	// tenant can (and does, in the arbitrary-scan program) compute its
	// neighbour's window; the arbiter, not secrecy, is the defense.
	capWinBase   = iommu.IOVA(0x10_0000_0000)
	capWinStride = uint64(1 << 21)
	// shadowWinBase maps the per-tenant shadow rings (trusted memory,
	// permanent grants) clear of the capability windows.
	shadowWinBase = iommu.IOVA(0x20_0000_0000)
	// MaxTenants is the most tenants one machine holds: tenant
	// MaxTenants's capability window would start on the shadow rings.
	MaxTenants = int((uint64(shadowWinBase) - uint64(capWinBase)) / capWinStride)
	// MinFrameSize and MaxFrameSize bound a frame: it carries the wire
	// format's 2-byte length header, which describes at most 0xFFFF bytes.
	MinFrameSize = 2
	MaxFrameSize = 0xFFFF

	// Userspace per-frame datapath costs. These are tenant-model
	// constants rather than cycles.Costs fields (the cost-model
	// fingerprint pins every committed baseline): a kernel-bypass app
	// pays no syscall, no skb, no protocol stack — just a poll-mode
	// descriptor read plus buffer bookkeeping, and a posted-write
	// doorbell on repost (cf. Costs.RxParse=360 for the kernel path).
	consumeCycles = 180
	repostCycles  = 96
	// validateCycles is the arbiter's per-descriptor bounds + epoch
	// check in the capability scheme (CAPIO-style range compare, ~50 ns),
	// paid as device-side latency before the DMA is issued.
	validateCycles = 120
)

func tenantDev(id int) iommu.DeviceID { return tenantDevBase + iommu.DeviceID(id) }

// Config assembles one tenant machine.
type Config struct {
	Scheme  string
	Tenants int
	// Attack names the hostile program tenant 0 mounts against tenant 1
	// ("" = all tenants benign). See Attacks().
	Attack string
	// WindowMs is the simulated run length.
	WindowMs float64
	// FrameSize is the ingress payload per frame (default 1500).
	FrameSize int
	// RingSize is the per-tenant descriptor ring depth (default 8).
	RingSize int
	// BufSize is the per-RX-buffer size (default 2048, or FrameSize when
	// larger, so a frame is never truncated).
	BufSize int
	// DatapathCores is the number of trusted datapath procs that poll
	// completions, run tenant consume/repost, and (shadow-copy) copy
	// frames out (default 2).
	DatapathCores int
	Seed          int64
	Costs         *cycles.Costs
	// Hint is the shadow-copy §5.4 copying hint (default
	// netstack.PacketLenHint, parsing the wire format's length header).
	Hint core.HintFunc
}

func (c *Config) normalize() error {
	if !IsScheme(c.Scheme) {
		return fmt.Errorf("tenant: unknown scheme %q", c.Scheme)
	}
	if c.Tenants <= 0 {
		c.Tenants = 16
	}
	if c.Attack != "" {
		if _, err := findProgram(c.Attack); err != nil {
			return err
		}
		if c.Tenants < 2 {
			return fmt.Errorf("tenant: attack %q needs >= 2 tenants", c.Attack)
		}
	}
	if c.WindowMs <= 0 {
		c.WindowMs = 1
	}
	if c.FrameSize <= 0 {
		c.FrameSize = 1500
	}
	if c.RingSize <= 0 {
		c.RingSize = 8
	}
	if c.BufSize < c.FrameSize {
		c.BufSize = max(2048, c.FrameSize)
	}
	if c.DatapathCores <= 0 {
		c.DatapathCores = 2
	}
	if c.Costs == nil {
		c.Costs = cycles.Default()
	}
	if c.Hint == nil {
		c.Hint = netstack.PacketLenHint
	}
	return nil
}

// AppDesc is what a tenant posts on its queue: a buffer address in the
// scheme's descriptor address space (raw physical for unprotected and
// shadow-copy destinations, capability-window IOVA for capability), a
// length, and the grant epoch the capability was issued under.
type AppDesc struct {
	Addr  uint64
	Len   int
	Epoch uint32
}

// Grant is one registered memory region in a tenant's grant table: the
// physical region, its descriptor-space base, and the epoch/liveness the
// arbiter (capability) or copy engine (shadow-copy) validates against.
type Grant struct {
	Region mem.Buf
	Base   uint64 // descriptor address-space base (== Region.Addr except capability)
	Epoch  uint32
	Live   bool
}

func (g *Grant) contains(addr uint64, n int) bool {
	return g.Live && addr >= g.Base && n >= 0 &&
		addr+uint64(n) <= g.Base+uint64(g.Region.Size)
}

// TenantStats is the per-tenant accounting the sweep reports.
type TenantStats struct {
	Frames     uint64 // frames delivered to the application
	Bytes      uint64 // goodput bytes
	Violations uint64 // descriptors rejected by arbiter / copy engine
	NoBufDrops uint64 // frames dropped for lack of a posted descriptor/slot
	BlockDrops uint64 // frames dropped while the tenant was quarantined
	DMAFaults  uint64 // device DMAs that faulted (defense in depth)
}

// Tenant is one queue-pair owner: a contiguous registered region laid
// out [private page | RX buffers], a descriptor ring, and a grant table.
// Regions are physically adjacent in tenant order, so tenant i's last RX
// buffer borders tenant i+1's private page — the ring-overrun target.
type Tenant struct {
	ID      int
	Hostile bool

	Region  mem.Buf
	Private mem.Buf   // sentinel-filled page: the isolation oracle
	bufs    []mem.Buf // RX buffers inside Region

	ring   *nic.Ring[AppDesc]
	grants []*Grant

	// shadow-copy state: the device-visible slot ring (free slot
	// indexes) and its backing area.
	shadowArea mem.Buf
	freeSlots  *nic.Ring[int]

	Stats TenantStats
}

// mainGrant returns the registration-time grant covering Region.
func (t *Tenant) mainGrant() *Grant { return t.grants[0] }

func (t *Tenant) findGrant(addr uint64, n int, epoch uint32, checkEpoch bool) *Grant {
	for _, g := range t.grants {
		if g.contains(addr, n) && (!checkEpoch || g.Epoch == epoch) {
			return g
		}
	}
	return nil
}

// Machine is one assembled multi-tenant datapath: engine, memory, IOMMU,
// the shared NIC wire, the per-tenant supervisor, datapath procs, and
// the scheme under test.
type Machine struct {
	cfg Config

	Eng  *sim.Engine
	Mem  *mem.Memory
	U    *iommu.IOMMU
	Wire *nic.Wire
	Sup  *resilience.Supervisor

	scheme  scheme
	tenants []*Tenant
	benign  []*Tenant
	procs   []*dpQueue

	hostile   *program
	hostileT  *Tenant
	victimID  int
	replayed  AppDesc // stale descriptor the replay program keeps reposting
	spill     mem.Buf // victim-owned page reallocated from the hostile's revoked grant
	attackSeq uint64

	payload []byte // shared ingress frame: 2-byte length header + zero fill

	spare []*completion          // carriers of delivered completions
	audit campaign.SentinelAudit // VictimCorruption's page buffer

	// Machine-wide counters.
	FramesOnWire uint64
	rr           int
}

// NewMachine assembles a machine; Run drives it for the window.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:      cfg,
		Eng:      sim.NewEngine(),
		Mem:      mem.New(1),
		victimID: 1,
	}
	m.U = iommu.New(m.Eng, m.Mem, cfg.Costs)
	m.Wire = nic.NewWire(cfg.Costs)
	m.Sup = resilience.Attach(m.U, m.Eng, tenantPolicy())
	m.scheme = newScheme(cfg.Scheme)

	// The simulated wire format: 2-byte big-endian length header (the
	// stand-in IP total length PacketLenHint parses) over a zero fill.
	m.payload = make([]byte, cfg.FrameSize)
	m.payload[0] = byte(cfg.FrameSize >> 8)
	m.payload[1] = byte(cfg.FrameSize)

	// Tenant regions, allocated back-to-back so neighbours are
	// physically adjacent (the ring-overrun attack depends on it).
	bufArea := cfg.RingSize * cfg.BufSize
	pages := 1 + (bufArea+mem.PageSize-1)/mem.PageSize
	for i := 0; i < cfg.Tenants; i++ {
		base, err := m.Mem.AllocPages(0, pages)
		if err != nil {
			return nil, fmt.Errorf("tenant %d region: %w", i, err)
		}
		t := &Tenant{
			ID:      i,
			Region:  mem.Buf{Addr: base, Size: pages * mem.PageSize},
			Private: mem.Buf{Addr: base, Size: mem.PageSize},
			ring:    nic.NewRingOf[AppDesc](cfg.RingSize),
		}
		for b := 0; b < cfg.RingSize; b++ {
			t.bufs = append(t.bufs, mem.Buf{
				Addr: base + mem.Phys(mem.PageSize+b*cfg.BufSize),
				Size: cfg.BufSize,
			})
		}
		if err := m.Mem.Fill(t.Private, campaign.SentinelByte(i)); err != nil {
			return nil, err
		}
		m.tenants = append(m.tenants, t)
	}
	if cfg.Attack != "" {
		m.tenants[0].Hostile = true
		m.hostileT = m.tenants[0]
		p, _ := findProgram(cfg.Attack)
		m.hostile = p
	}
	for _, t := range m.tenants {
		if !t.Hostile {
			m.benign = append(m.benign, t)
		}
	}

	// Register every tenant with the scheme (grants, windows, shadow
	// rings), then arm the queues.
	for _, t := range m.tenants {
		if err := m.scheme.attach(m, t); err != nil {
			return nil, err
		}
	}
	for _, t := range m.benign {
		for _, buf := range t.bufs {
			t.ring.Post(AppDesc{
				Addr:  m.scheme.descAddr(t, buf.Addr),
				Len:   buf.Size,
				Epoch: t.mainGrant().Epoch,
			})
		}
	}
	if m.hostile != nil {
		if err := m.hostile.setup(m, m.hostileT); err != nil {
			return nil, err
		}
	}
	m.spawnDatapath()
	return m, nil
}

// tenantPolicy is the per-tenant quarantine policy: tighter than the
// device default (a tenant emitting rejected descriptors is hostile or
// broken, not "background faulting"), with a short cooldown so sweeps
// exercise the readmit → re-quarantine cycle inside one window.
func tenantPolicy() resilience.Policy {
	return resilience.Policy{
		FaultBurst:  8,
		RefillEvery: cycles.FromMicros(10),
		Cooldown:    cycles.FromMillis(1),
		MaxReadmits: -1,
	}
}

// violation records a rejected descriptor and feeds the tenant's pseudo
// device into the resilience supervisor: quarantine at tenant
// granularity with zero changes to the fault-domain engine.
func (m *Machine) violation(t *Tenant, d AppDesc, now uint64, reason string) {
	t.Stats.Violations++
	m.Sup.Observe(iommu.Fault{
		Dev:    tenantDev(t.ID),
		Addr:   iommu.IOVA(d.Addr),
		Want:   iommu.PermWrite,
		Reason: reason,
		At:     now,
	})
}

// Run drives the machine for the configured window and tears it down.
func (m *Machine) Run() {
	m.startIngress()
	m.Eng.Run(cycles.FromMillis(m.cfg.WindowMs))
	m.Eng.Stop()
}

// VictimCorruption audits every benign tenant's private page (and the
// replay spill page, if the hostile program created one) against its
// sentinel: the ground-truth isolation verdict.
func (m *Machine) VictimCorruption() (tenants int, bytes int) {
	audit := func(buf mem.Buf, want byte) int {
		n, err := m.audit.Corrupted(m.Mem, buf, want)
		if err != nil {
			return buf.Size // unauditable counts as corrupted
		}
		return n
	}
	for _, t := range m.benign {
		if n := audit(t.Private, campaign.SentinelByte(t.ID)); n > 0 {
			tenants++
			bytes += n
		}
	}
	if m.spill.Size > 0 {
		if n := audit(m.spill, campaign.SentinelByte(m.victimID)); n > 0 {
			tenants++
			bytes += n
		}
	}
	return tenants, bytes
}

// Result is one cell's outcome: the isolation verdict plus the metrics
// both tables report.
type Result struct {
	Scheme   string
	Attack   string
	Tenants  int
	Breached bool
	Metrics  map[string]float64
}

// Collect summarizes the run.
func (m *Machine) Collect() Result {
	window := cycles.FromMillis(m.cfg.WindowMs)
	var agg, victim TenantStats
	for _, t := range m.benign {
		agg.Frames += t.Stats.Frames
		agg.Bytes += t.Stats.Bytes
		agg.NoBufDrops += t.Stats.NoBufDrops
		agg.DMAFaults += t.Stats.DMAFaults
	}
	victim = m.tenants[m.victimID].Stats
	corruptTenants, corruptBytes := m.VictimCorruption()

	var busy uint64
	for _, q := range m.procs {
		busy += q.proc.Busy()
	}
	cpuPct := 0.0
	if window > 0 && len(m.procs) > 0 {
		cpuPct = 100 * float64(busy) / float64(window*uint64(len(m.procs)))
	}

	res := Result{
		Scheme:   m.cfg.Scheme,
		Attack:   m.cfg.Attack,
		Tenants:  m.cfg.Tenants,
		Breached: corruptBytes > 0,
		Metrics: map[string]float64{
			"goodput_gbps":     cycles.Gbps(agg.Bytes, window),
			"frames":           float64(agg.Frames),
			"nobuf_drops":      float64(agg.NoBufDrops),
			"dma_faults":       float64(agg.DMAFaults),
			"datapath_cpu_pct": cpuPct,
			"corrupted_bytes":  float64(corruptBytes),
			"corrupt_tenants":  float64(corruptTenants),
			"victim_gbps":      cycles.Gbps(victim.Bytes, window),
			"wire_util_pct":    100 * m.Wire.Utilization(window),
		},
	}
	if m.hostileT != nil {
		h := m.hostileT
		res.Metrics["success"] = b2f(res.Breached)
		res.Metrics["violations"] = float64(h.Stats.Violations)
		res.Metrics["hostile_frames"] = float64(h.Stats.Frames)
		res.Metrics["block_drops"] = float64(h.Stats.BlockDrops)
		res.Metrics["quarantines"] = float64(m.Sup.Stats(tenantDev(h.ID)).Quarantines)
	}
	return res
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
