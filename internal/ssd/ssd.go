// Package ssd simulates an NVMe-class solid-state drive and a block-layer
// driver on top of the DMA API. It substantiates the paper's §5.5
// argument: huge DMA buffers come with low operation rates (the paper
// cites Intel datacenter SSDs at up to 850K read / 150K write IOPS against
// the NIC's 1.7M packets/s), so zero-copy mapping with strict invalidation
// is affordable there — which is exactly when the shadow mapper's hybrid
// path engages.
//
// The device is functional: reads and writes move real bytes between a
// simulated flash store and host memory, through the IOMMU.
package ssd

import (
	"repro/internal/cycles"
	"repro/internal/iommu"
	"repro/internal/sim"
)

// Op is a storage command opcode.
type Op uint8

// Commands.
const (
	OpRead Op = iota + 1
	OpWrite
)

// BlockSize is the logical block size.
const BlockSize = 4096

// Config describes the device.
type Config struct {
	Dev        iommu.DeviceID
	Queues     int // submission/completion queue pairs (one per core)
	QueueDepth int
	Costs      *cycles.Costs

	// Performance envelope (defaults follow the paper's §5.5 numbers).
	ReadIOPS      uint64 // max 4K read rate
	WriteIOPS     uint64 // max 4K write rate
	BandwidthMBps uint64 // sequential bandwidth
	ReadLatency   uint64 // flash read latency, cycles
	WriteLatency  uint64 // program latency, cycles
}

func (c *Config) fillDefaults() {
	if c.Queues < 1 {
		c.Queues = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.ReadIOPS == 0 {
		c.ReadIOPS = 850_000
	}
	if c.WriteIOPS == 0 {
		c.WriteIOPS = 150_000
	}
	if c.BandwidthMBps == 0 {
		c.BandwidthMBps = 2800
	}
	if c.ReadLatency == 0 {
		c.ReadLatency = cycles.FromMicros(80)
	}
	if c.WriteLatency == 0 {
		c.WriteLatency = cycles.FromMicros(25)
	}
}

// Command is one submission-queue entry.
type Command struct {
	Op   Op
	LBA  uint64
	Addr iommu.IOVA
	Len  int
	Tag  interface{}
}

// Completion reports a finished command.
type Completion struct {
	Cmd    Command
	Status error // nil on success; IOMMU faults surface here
}

// SSD is the simulated device.
type SSD struct {
	eng *sim.Engine
	u   *iommu.IOMMU
	cfg Config

	queues []*Queue
	flash  map[uint64][]byte // lba -> BlockSize bytes
	// busyTill models the device's internal throughput pipe: ops consume
	// 1/IOPS (or transfer time for big ops), while completion latency is
	// decoupled (the device is internally parallel).
	busyTill uint64
	// stage is the data-transfer staging buffer shared by the read and
	// write paths: process moves one command at a time, and neither the
	// IOMMU nor the flash store keeps the slice.
	stage []byte

	// Stats
	Reads, Writes          uint64
	BytesRead, BytesWriten uint64
	Faults                 uint64
}

// Queue is one submission/completion queue pair.
type Queue struct {
	dev *SSD
	idx int

	sq          []Command
	outstanding int
	comp        []Completion
	CompCond    *sim.Cond
}

// New creates the device.
func New(eng *sim.Engine, u *iommu.IOMMU, cfg Config) *SSD {
	cfg.fillDefaults()
	d := &SSD{eng: eng, u: u, cfg: cfg, flash: make(map[uint64][]byte)}
	for i := 0; i < cfg.Queues; i++ {
		d.queues = append(d.queues, &Queue{dev: d, idx: i, CompCond: sim.NewCond("ssd-comp")})
	}
	return d
}

// Config returns the device configuration.
func (d *SSD) Config() Config { return d.cfg }

// Queue returns queue pair i.
func (d *SSD) Queue(i int) *Queue { return d.queues[i] }

// Preload writes a block directly into flash (test/workload setup).
func (d *SSD) Preload(lba uint64, data []byte) {
	blk := make([]byte, BlockSize)
	copy(blk, data)
	d.flash[lba] = blk
}

// BlockAt returns the current flash content of a block.
func (d *SSD) BlockAt(lba uint64) []byte {
	if b, ok := d.flash[lba]; ok {
		out := make([]byte, BlockSize)
		copy(out, b)
		return out
	}
	return make([]byte, BlockSize)
}

// Submit posts a command (driver context). It reports false when the
// queue is at its depth limit.
func (q *Queue) Submit(p *sim.Proc, cmd Command) bool {
	if q.outstanding >= q.dev.cfg.QueueDepth {
		return false
	}
	q.outstanding++
	q.sq = append(q.sq, cmd)
	q.dev.eng.Schedule(p.Now(), q.process)
	return true
}

// Outstanding returns the number of submitted, uncompleted commands.
func (q *Queue) Outstanding() int { return q.outstanding }

// HasComp reports whether completions are pending.
func (q *Queue) HasComp() bool { return len(q.comp) > 0 }

// DrainComp takes all pending completions (driver context).
func (q *Queue) DrainComp() []Completion {
	out := q.comp
	q.comp = nil
	return out
}

// process is the device-side engine: it pulls submissions, performs the
// data transfer through the IOMMU, and schedules completions according to
// the device's throughput and latency envelope.
func (q *Queue) process(now uint64) {
	d := q.dev
	for len(q.sq) > 0 {
		cmd := q.sq[0]
		q.sq = q.sq[1:]

		// Throughput occupancy: an op costs the larger of the IOPS slot
		// and the bandwidth transfer time.
		var slot uint64
		if cmd.Op == OpRead {
			slot = cycles.Hz / d.cfg.ReadIOPS
		} else {
			slot = cycles.Hz / d.cfg.WriteIOPS
		}
		xfer := uint64(cmd.Len) * cycles.Hz / (d.cfg.BandwidthMBps * 1_000_000)
		if xfer > slot {
			slot = xfer
		}
		start := now
		if d.busyTill > start {
			start = d.busyTill
		}
		d.busyTill = start + slot

		// Data movement (functional, through the IOMMU).
		var status error
		var lat uint64
		data := d.staging(cmd.Len)
		switch cmd.Op {
		case OpRead:
			lat = d.cfg.ReadLatency + xfer
			d.readFlash(cmd.LBA, data)
			res := d.u.DMAWrite(d.cfg.Dev, cmd.Addr, data)
			if res.Fault != nil {
				status = res.Fault
				d.Faults++
			} else {
				d.Reads++
				d.BytesRead += uint64(cmd.Len)
			}
		case OpWrite:
			lat = d.cfg.WriteLatency + xfer
			res := d.u.DMARead(d.cfg.Dev, cmd.Addr, data)
			if res.Fault != nil {
				status = res.Fault
				d.Faults++
			} else {
				d.writeFlash(cmd.LBA, data)
				d.Writes++
				d.BytesWriten += uint64(cmd.Len)
			}
		}
		done := start + lat + d.cfg.Costs.IRQLatency
		c := Completion{Cmd: cmd, Status: status}
		d.eng.Schedule(done, func(at uint64) {
			q.outstanding--
			q.comp = append(q.comp, c)
			q.CompCond.SignalAt(at, 1)
		})
	}
}

// staging returns the device's staging buffer resized to n bytes.
func (d *SSD) staging(n int) []byte {
	if cap(d.stage) < n {
		d.stage = make([]byte, n)
	}
	return d.stage[:n]
}

// readFlash fills out with the flash content starting at lba; blocks
// never written read as zeros.
func (d *SSD) readFlash(lba uint64, out []byte) {
	for off := 0; off < len(out); off += BlockSize {
		if b, ok := d.flash[lba+uint64(off/BlockSize)]; ok {
			copy(out[off:], b)
		} else {
			clear(out[off:min(off+BlockSize, len(out))])
		}
	}
}

func (d *SSD) writeFlash(lba uint64, data []byte) {
	for off := 0; off < len(data); off += BlockSize {
		// Blocks never escape the map (BlockAt and readFlash copy out),
		// so an existing block is overwritten in place.
		key := lba + uint64(off/BlockSize)
		blk, ok := d.flash[key]
		if !ok {
			blk = make([]byte, BlockSize)
			d.flash[key] = blk
		}
		clear(blk[copy(blk, data[off:]):])
	}
}
