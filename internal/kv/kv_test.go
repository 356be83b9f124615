package kv

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/dmaapi"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/sim"
)

func TestProtocolRoundTrip(t *testing.T) {
	g := EncodeGet("hello")
	req, err := DecodeRequest(g)
	if err != nil {
		t.Fatal(err)
	}
	if req.Op != OpGet || req.Key != "hello" || req.Value != nil {
		t.Errorf("GET decode: %+v", req)
	}
	s := EncodeSet("k", []byte("value-bytes"))
	req, err = DecodeRequest(s)
	if err != nil {
		t.Fatal(err)
	}
	if req.Op != OpSet || req.Key != "k" || !bytes.Equal(req.Value, []byte("value-bytes")) {
		t.Errorf("SET decode: %+v", req)
	}
	// Responses.
	rv := EncodeGetResponse([]byte("vvv"), true)
	status, val, err := DecodeResponse(rv)
	if err != nil || status != StatusOK || !bytes.Equal(val, []byte("vvv")) {
		t.Errorf("GET response decode: %d %q %v", status, val, err)
	}
	status, _, _ = DecodeResponse(EncodeGetResponse(nil, false))
	if status != StatusMiss {
		t.Error("miss response wrong")
	}
	status, _, _ = DecodeResponse(EncodeSetResponse())
	if status != StatusOK {
		t.Error("set ack wrong")
	}
}

func TestProtocolPropertyRoundTrip(t *testing.T) {
	f := func(rawKey []byte, value []byte, isGet bool) bool {
		if len(rawKey) == 0 || len(rawKey) > 200 {
			return true
		}
		if len(value) > 1400 {
			value = value[:1400]
		}
		key := string(rawKey)
		var b []byte
		if isGet {
			b = EncodeGet(key)
		} else {
			b = EncodeSet(key, value)
		}
		req, err := DecodeRequest(b)
		if err != nil {
			return false
		}
		if req.Key != key {
			return false
		}
		if !isGet && !bytes.Equal(req.Value, value) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRequestSizes checks the request sizes against the encoders, and
// the client's size function against the requests it sends, so a frame
// is sized without encoding its request.
func TestRequestSizes(t *testing.T) {
	for _, keyLen := range []int{1, 8, 64, 200} {
		key := string(bytes.Repeat([]byte{'k'}, keyLen))
		if got, want := GetRequestSize(keyLen), len(EncodeGet(key)); got != want {
			t.Errorf("GetRequestSize(%d) = %d, want %d", keyLen, got, want)
		}
		for _, valLen := range []int{0, 1, 100, 1024, 1400} {
			enc := EncodeSet(key, make([]byte, valLen))
			if got := SetRequestSize(keyLen, valLen); got != len(enc) || got != int(enc[0])<<8|int(enc[1]) {
				t.Errorf("SetRequestSize(%d, %d) = %d, want %d", keyLen, valLen, got, len(enc))
			}
		}
	}
	c := &Client{cfg: DefaultClientConfig(), keys: DefaultKeys()}
	for seq := 0; seq < 200; seq++ {
		if got, want := c.requestSize(seq), len(c.requestBytes(seq)); got != want {
			t.Fatalf("request %d: size %d, encoded %d bytes", seq, got, want)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1},
		{0, 10, 9, 200},             // key length beyond total
		{0, 4, 9, 0},                // unknown opcode
		{0, 6, OpSet, 1, 'k'},       // SET missing value length
		{0, 9, OpSet, 1, 'k', 0, 9}, // SET truncated value
	}
	for i, c := range cases {
		if _, err := DecodeRequest(c); err == nil {
			t.Errorf("case %d should fail: %v", i, c)
		}
	}
}

func TestStoreSetGetReplace(t *testing.T) {
	m := mem.New(1)
	k := mem.NewKmalloc(m, nil)
	s := NewStore(m, k)
	if err := s.Set(0, "a", []byte("one")); err != nil {
		t.Fatal(err)
	}
	v, hit, err := s.Get("a")
	if err != nil || !hit || string(v) != "one" {
		t.Fatalf("get: %q %v %v", v, hit, err)
	}
	// Same-size replace reuses the allocation.
	if err := s.Set(0, "a", []byte("two")); err != nil {
		t.Fatal(err)
	}
	v, _, _ = s.Get("a")
	if string(v) != "two" {
		t.Error("replace failed")
	}
	// Different-size replace reallocates.
	if err := s.Set(0, "a", []byte("three-is-longer")); err != nil {
		t.Fatal(err)
	}
	v, _, _ = s.Get("a")
	if string(v) != "three-is-longer" {
		t.Error("resize replace failed")
	}
	if _, hit, _ := s.Get("missing"); hit {
		t.Error("phantom hit")
	}
	if s.Len() != 1 {
		t.Errorf("len = %d", s.Len())
	}
}

func TestKeyFixedWidth(t *testing.T) {
	for _, i := range []int{0, 7, 123456} {
		k := Key(i, 64)
		if len(k) != 64 {
			t.Errorf("Key(%d) len = %d", i, len(k))
		}
	}
	if Key(1, 64) == Key(2, 64) {
		t.Error("keys must differ")
	}
	if keys := Keys(3, 64); len(keys) != 3 || keys[2] != Key(2, 64) {
		t.Errorf("Keys(3, 64) = %q", keys)
	}
}

func TestEndToEndMemcached(t *testing.T) {
	eng := sim.NewEngine()
	m := mem.New(2)
	costs := cycles.Default()
	u := iommu.New(eng, m, costs)
	env := &dmaapi.Env{Eng: eng, Mem: m, IOMMU: u, Costs: costs, Dev: 1, Cores: 1}
	mapper, err := core.NewShadowMapper(env, core.WithHint(netstack.PacketLenHint))
	if err != nil {
		t.Fatal(err)
	}
	n := nic.New(eng, u, nic.Config{Dev: 1, Queues: 1, RingSize: 64, MTU: 1500, TSO: true, Costs: costs})
	k := mem.NewKmalloc(m, nil)
	drv := netstack.NewDriver(env, mapper, n, k, 2048)

	store := NewStore(m, k)
	scfg := DefaultServerConfig()
	keys := Keys(64, 64)
	if err := Prepopulate(store, 0, keys, scfg); err != nil {
		t.Fatal(err)
	}
	var st ServerStats
	eng.Spawn("server", 0, 0, func(p *sim.Proc) {
		if err := RunServer(p, drv, store, 0, scfg, &st); err != nil {
			t.Error(err)
		}
	})
	client := NewClient(eng, n, 0, costs, DefaultClientConfig(), keys)
	client.Start(cycles.FromMicros(100))
	eng.Run(cycles.FromMillis(5))
	eng.Stop()

	if client.Transactions < 50 {
		t.Fatalf("transactions = %d", client.Transactions)
	}
	if st.Errors != 0 {
		t.Errorf("server decode errors = %d (shadow copies corrupted requests?)", st.Errors)
	}
	if st.GetOps == 0 || st.SetOps == 0 {
		t.Errorf("mix broken: %d gets %d sets", st.GetOps, st.SetOps)
	}
	ratio := float64(st.GetOps) / float64(st.GetOps+st.SetOps)
	if ratio < 0.8 || ratio > 0.97 {
		t.Errorf("GET ratio = %.2f, want ~0.9", ratio)
	}
	// Store hit rate should be ~100% (prepopulated key space).
	if store.Hits*10 < store.Gets*9 {
		t.Errorf("hit rate too low: %d/%d", store.Hits, store.Gets)
	}
}

// FuzzDecodeRequest ensures the request parser never panics and never
// accepts malformed frames (it parses device-delivered, untrusted bytes).
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeGet("some-key"))
	f.Add(EncodeSet("k", []byte("value")))
	f.Add([]byte{0, 4, 9, 200})
	f.Add([]byte{0xff, 0xff, OpSet, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err != nil {
			return
		}
		// Anything accepted must re-encode consistently.
		var re []byte
		switch req.Op {
		case OpGet:
			re = EncodeGet(req.Key)
		case OpSet:
			re = EncodeSet(req.Key, req.Value)
		default:
			t.Fatalf("accepted unknown op %d", req.Op)
		}
		req2, err := DecodeRequest(re)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if req2.Op != req.Op || req2.Key != req.Key || !bytes.Equal(req2.Value, req.Value) {
			t.Fatal("decode/encode not a fixed point")
		}
	})
}
