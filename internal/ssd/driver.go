package ssd

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/cycles"
	"repro/internal/dmaapi"
	"repro/internal/mem"
	"repro/internal/sim"
)

// BlockDriver is the block-layer driver: it owns I/O buffers, maps them
// with whatever protection strategy the machine uses, and drives the SSD's
// queues — the storage analogue of the NIC driver in internal/netstack.
type BlockDriver struct {
	env    *dmaapi.Env
	mapper dmaapi.Mapper
	dev    *SSD
	k      *mem.Kmalloc
}

// NewBlockDriver creates the driver.
func NewBlockDriver(env *dmaapi.Env, mapper dmaapi.Mapper, dev *SSD, k *mem.Kmalloc) *BlockDriver {
	return &BlockDriver{env: env, mapper: mapper, dev: dev, k: k}
}

// WorkloadConfig describes a fio-style random I/O workload on one queue.
type WorkloadConfig struct {
	IOSize  int // bytes per command
	ReadPct int // 0..100
	Depth   int // target outstanding commands
	Blocks  uint64
	Seed    int64
	Verify  bool // check read contents against the flash image
}

// WorkloadStats accumulates results.
type WorkloadStats struct {
	Reads, Writes uint64
	Bytes         uint64
	Errors        uint64
}

type inflight struct {
	buf  mem.Buf
	dir  dmaapi.Dir
	lba  uint64
	data []byte // expected read content (Verify only)
}

// payloadFill generates write payloads: exactly the bytes rng.Read would
// produce, from exactly the same Int63 draws (seven bytes per draw, least
// significant first, a partial draw carried into the next call), so the
// rest of the workload's random sequence is unchanged. Whole draws are
// stored eight bytes at a time; the eighth byte is overwritten by the
// next draw.
type payloadFill struct {
	rng *rand.Rand
	val int64 // undelivered bytes of the last draw, next byte lowest
	pos int   // how many bytes val still holds
}

func (f *payloadFill) fill(b []byte) {
	n := 0
	for ; n < len(b) && f.pos > 0; n++ {
		b[n] = byte(f.val)
		f.val >>= 8
		f.pos--
	}
	for ; n+8 <= len(b); n += 7 {
		binary.LittleEndian.PutUint64(b[n:], uint64(f.rng.Int63()))
	}
	for ; n < len(b); n++ {
		if f.pos == 0 {
			f.val, f.pos = f.rng.Int63(), 7
		}
		b[n] = byte(f.val)
		f.val >>= 8
		f.pos--
	}
}

// RunWorkload runs random I/O on queue qi until the engine stops it.
func (bd *BlockDriver) RunWorkload(p *sim.Proc, qi int, cfg WorkloadConfig, st *WorkloadStats) error {
	if cfg.IOSize <= 0 {
		cfg.IOSize = 4096
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 32
	}
	if cfg.Blocks == 0 {
		cfg.Blocks = 4096
	}
	q := bd.dev.Queue(qi)
	co := bd.env.Costs
	domain := bd.env.DomainOfCore(p.Core())
	rng := rand.New(rand.NewSource(cfg.Seed + int64(qi)))
	payload, fill := make([]byte, cfg.IOSize), payloadFill{rng: rng}

	// Buffer pool: one per outstanding command.
	var pool []mem.Buf
	for i := 0; i < cfg.Depth; i++ {
		b, err := bd.k.Alloc(domain, cfg.IOSize)
		if err != nil {
			return err
		}
		pool = append(pool, b)
	}
	blocksPerIO := uint64((cfg.IOSize + BlockSize - 1) / BlockSize)

	complete := func() error {
		for _, c := range q.DrainComp() {
			fl := c.Cmd.Tag.(*inflight)
			p.ChargeSpan("blk/complete", cycles.TagOther, co.BlkComplete)
			if err := bd.mapper.Unmap(p, c.Cmd.Addr, fl.buf.Size, fl.dir); err != nil {
				return err
			}
			if c.Status != nil {
				st.Errors++
			} else {
				if c.Cmd.Op == OpRead {
					st.Reads++
					if cfg.Verify {
						got, err := bd.env.Mem.Snapshot(fl.buf)
						if err != nil {
							return err
						}
						for i := range got {
							if got[i] != fl.data[i] {
								return fmt.Errorf("ssd: read verify failed at lba %d offset %d", c.Cmd.LBA, i)
							}
						}
					}
				} else {
					st.Writes++
				}
				st.Bytes += uint64(c.Cmd.Len)
			}
			pool = append(pool, fl.buf)
		}
		return nil
	}

	for {
		if err := complete(); err != nil {
			return err
		}
		for len(pool) == 0 || q.Outstanding() >= cfg.Depth {
			q.CompCond.WaitUntil(p, q.HasComp)
			p.Sleep(co.SchedLatency)
			if err := complete(); err != nil {
				return err
			}
		}
		buf := pool[len(pool)-1]
		pool = pool[:len(pool)-1]

		lba := (rng.Uint64() % (cfg.Blocks / blocksPerIO)) * blocksPerIO
		isRead := rng.Intn(100) < cfg.ReadPct
		fl := &inflight{buf: buf, lba: lba}
		var cmd Command
		p.ChargeSpan("blk/submit", cycles.TagOther, co.BlkSubmit)
		if isRead {
			fl.dir = dmaapi.FromDevice
			if cfg.Verify {
				fl.data = make([]byte, cfg.IOSize)
				bd.dev.readFlash(lba, fl.data)
			}
			addr, err := bd.mapper.Map(p, buf, fl.dir)
			if err != nil {
				return err
			}
			cmd = Command{Op: OpRead, LBA: lba, Addr: addr, Len: cfg.IOSize, Tag: fl}
		} else {
			fl.dir = dmaapi.ToDevice
			fill.fill(payload)
			if err := bd.env.Mem.Write(buf.Addr, payload); err != nil {
				return err
			}
			addr, err := bd.mapper.Map(p, buf, fl.dir)
			if err != nil {
				return err
			}
			cmd = Command{Op: OpWrite, LBA: lba, Addr: addr, Len: cfg.IOSize, Tag: fl}
		}
		for !q.Submit(p, cmd) {
			q.CompCond.WaitUntil(p, q.HasComp)
			p.Sleep(co.SchedLatency)
			if err := complete(); err != nil {
				return err
			}
		}
	}
}
