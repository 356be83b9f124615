package kv

import (
	"repro/internal/cycles"
	"repro/internal/mem"
	"repro/internal/netstack"
	"repro/internal/sim"
)

// ServerConfig parameterizes one memcached instance.
type ServerConfig struct {
	// OpCycles is the CPU cost of the key-value operation proper (hash
	// lookup, LRU, item handling). Default ~4us, putting per-request
	// service time in real memcached territory.
	OpCycles uint64
	// ValueSize is the size of each prepopulated value.
	ValueSize int
}

// DefaultServerConfig matches the paper's memslap setup (1 KiB values;
// DefaultKeys holds its 64 B keys).
func DefaultServerConfig() ServerConfig {
	return ServerConfig{OpCycles: 9600, ValueSize: 1024}
}

// ServerStats accumulates one instance's results.
type ServerStats struct {
	Requests uint64
	GetOps   uint64
	SetOps   uint64
	Errors   uint64
	Tx       netstack.TxStats
}

// Prepopulate fills the store with every key of keys so GETs hit
// (memslap warms the cache before measuring).
func Prepopulate(st *Store, domain int, keys []string, cfg ServerConfig) error {
	if len(st.table) == 0 {
		st.table = make(map[string]mem.Buf, len(keys))
	}
	val := make([]byte, cfg.ValueSize)
	for i := range val {
		val[i] = byte(i)
	}
	for _, k := range keys {
		if err := st.Set(domain, k, val); err != nil {
			return err
		}
	}
	return nil
}

// RunServer runs one memcached instance on one core: receive a request
// frame, execute it against the store, transmit the response.
func RunServer(p *sim.Proc, drv *netstack.Driver, store *Store, qi int, cfg ServerConfig, st *ServerStats) error {
	if err := drv.SetupQueue(p, qi); err != nil {
		return err
	}
	q := drv.NIC().Queue(qi)
	pool, err := drv.NewTxPool(p, 32)
	if err != nil {
		return err
	}
	co := costsOf(drv)
	domain := domainOf(drv, p)
	for {
		if !q.HasRx() {
			q.RxCond.WaitUntil(p, q.HasRx)
			p.Sleep(co.SchedLatency)
		}
		p.ChargeSpan("rx/irq", cycles.TagOther, co.InterruptEntry)
		for _, c := range q.DrainRx() {
			payload, err := drv.HandleRxRaw(p, qi, c)
			if err != nil {
				return err
			}
			req, err := DecodeRequest(payload)
			if err != nil {
				st.Errors++
				continue
			}
			st.Requests++
			p.ChargeSpan("kv/op", cycles.TagOther, cfg.OpCycles)
			var resp []byte
			switch req.Op {
			case OpGet:
				st.GetOps++
				val, hit, err := store.Get(req.Key)
				if err != nil {
					return err
				}
				resp = EncodeGetResponse(val, hit)
			case OpSet:
				st.SetOps++
				if err := store.Set(domain, req.Key, req.Value); err != nil {
					return err
				}
				resp = EncodeSetResponse()
			}
			if err := drv.SendMessageData(p, q, pool, resp, &st.Tx); err != nil {
				return err
			}
		}
	}
}

func costsOf(drv *netstack.Driver) *cycles.Costs {
	return drv.Env().Costs
}

func domainOf(drv *netstack.Driver, p *sim.Proc) int {
	return drv.Env().DomainOfCore(p.Core())
}
