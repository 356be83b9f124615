package kv

import (
	"repro/internal/cycles"
	"repro/internal/nic"
	"repro/internal/sim"
)

// ClientConfig parameterizes one memslap-style load generator.
type ClientConfig struct {
	ValueSize int
	GetRatio  int // percent of GETs (memslap default: 90)
	Window    int // outstanding requests per connection
}

// DefaultClientConfig matches the paper's memslap configuration.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{ValueSize: 1024, GetRatio: 90, Window: 24}
}

// Client is a remote memslap instance bound to one server queue. Like the
// netperf traffic source it is not a simulated CPU; it respects the wire,
// receive credits and a bounded request window.
type Client struct {
	eng  *sim.Engine
	src  *nic.Source
	cfg  ClientConfig
	keys []string // the key space requests draw from
	qi   int

	expected    []int // FIFO of expected response sizes
	respAcc     int
	outstanding int

	// Stats
	Transactions uint64
	Gets, Sets   uint64
}

// mix is a deterministic integer hash for op/key selection.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func (c *Client) isGet(seq int) bool {
	return int(mix(uint64(seq))%100) < c.cfg.GetRatio
}

func (c *Client) keyOf(seq int) string {
	return c.keys[mix(uint64(seq)*31+7)%uint64(len(c.keys))]
}

func (c *Client) requestBytes(seq int) []byte {
	if c.isGet(seq) {
		return EncodeGet(c.keyOf(seq))
	}
	val := make([]byte, c.cfg.ValueSize)
	for i := range val {
		val[i] = byte(seq + i)
	}
	return EncodeSet(c.keyOf(seq), val)
}

// requestSize is len(requestBytes(seq)), without encoding the request.
func (c *Client) requestSize(seq int) int {
	if c.isGet(seq) {
		return GetRequestSize(len(c.keyOf(seq)))
	}
	return SetRequestSize(len(c.keyOf(seq)), c.cfg.ValueSize)
}

func (c *Client) responseSize(seq int) int {
	if c.isGet(seq) {
		return GetResponseSize(c.cfg.ValueSize)
	}
	return SetResponseSize
}

// NewClient builds the load generator for server queue qi, drawing keys
// from keys (a table from Keys, shared with the server's store).
func NewClient(eng *sim.Engine, n *nic.NIC, qi int, costs *cycles.Costs, cfg ClientConfig, keys []string) *Client {
	c := &Client{eng: eng, cfg: cfg, keys: keys, qi: qi}
	c.src = nic.NewSource(eng, n.Queue(qi), costs, 0, n.Config().MTU, false)
	c.src.SetSizeFn(c.requestSize)
	c.src.SetPayload(func(seq, frameIdx int, b []byte) {
		req := c.requestBytes(seq)
		copy(b, req[frameIdx*n.Config().MTU:])
	})
	prev := n.TxDeliveredHook
	n.TxDeliveredHook = func(q int, at uint64, bytes int) {
		if prev != nil {
			prev(q, at, bytes)
		}
		if q == qi {
			c.onResponseBytes(at, bytes)
		}
	}
	return c
}

// Start launches the client at time t with a full request window.
func (c *Client) Start(t uint64) {
	c.eng.Schedule(t, func(now uint64) {
		for i := 0; i < c.cfg.Window; i++ {
			c.issue(now)
		}
	})
}

func (c *Client) issue(now uint64) {
	seq := int(c.Gets + c.Sets)
	if c.isGet(seq) {
		c.Gets++
	} else {
		c.Sets++
	}
	c.expected = append(c.expected, c.responseSize(seq))
	c.outstanding++
	c.src.EnqueueMessage(now)
}

func (c *Client) onResponseBytes(at uint64, b int) {
	c.respAcc += b
	for len(c.expected) > 0 && c.respAcc >= c.expected[0] {
		c.respAcc -= c.expected[0]
		c.expected = c.expected[1:]
		c.outstanding--
		c.Transactions++
		c.issue(at)
	}
}
