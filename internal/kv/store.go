// Package kv implements the memcached workload of the paper's Figure 11: a
// small in-memory key-value store served over the simulated network
// datapath, driven by a memslap-style load generator (64-byte keys, 1 KiB
// values, 90%/10% GET/SET), one instance per core.
package kv

import (
	"repro/internal/mem"
)

// Store is an in-memory key-value store whose values live in simulated
// physical memory (so GET responses carry real bytes through the DMA
// datapath).
type Store struct {
	m     *mem.Memory
	k     *mem.Kmalloc
	table map[string]mem.Buf

	// Stats
	Gets, Hits, Sets uint64
}

// NewStore creates a store over the machine's memory.
func NewStore(m *mem.Memory, k *mem.Kmalloc) *Store {
	return &Store{m: m, k: k, table: make(map[string]mem.Buf)}
}

// Set stores value under key, replacing any previous value.
func (s *Store) Set(domain int, key string, value []byte) error {
	s.Sets++
	if old, ok := s.table[key]; ok {
		if old.Size == len(value) {
			return s.m.Write(old.Addr, value)
		}
		if err := s.k.Free(old); err != nil {
			return err
		}
		delete(s.table, key)
	}
	buf, err := s.k.Alloc(domain, len(value))
	if err != nil {
		return err
	}
	if err := s.m.Write(buf.Addr, value); err != nil {
		return err
	}
	s.table[key] = buf
	return nil
}

// Get returns the value stored under key.
func (s *Store) Get(key string) ([]byte, bool, error) {
	s.Gets++
	buf, ok := s.table[key]
	if !ok {
		return nil, false, nil
	}
	s.Hits++
	val := make([]byte, buf.Size)
	if err := s.m.Read(buf.Addr, val); err != nil {
		return nil, false, err
	}
	return val, true, nil
}

// Len returns the number of stored keys.
func (s *Store) Len() int { return len(s.table) }

// Keys returns the benchmark key table, Key(i, keySize) for every i below
// keySpace. A machine builds it once and hands it to all of its stores
// and clients, which share the strings.
func Keys(keySpace, keySize int) []string {
	keys := make([]string, keySpace)
	for i := range keys {
		keys[i] = Key(i, keySize)
	}
	return keys
}

// DefaultKeys is the key table of the paper's memslap setup: 2,048 keys of
// 64 bytes.
func DefaultKeys() []string { return Keys(2048, 64) }

// Key builds the canonical fixed-width benchmark key for index i:
// "key-" + 10 zero-padded digits, '.'-padded/truncated to keySize.
func Key(i, keySize int) string {
	if i < 0 {
		i = 0
	}
	var head [14]byte // "key-" + 10 digits
	copy(head[:], "key-")
	for j := 13; j >= 4; j-- {
		head[j] = byte('0' + i%10)
		i /= 10
	}
	b := make([]byte, keySize)
	n := copy(b, head[:])
	for j := n; j < keySize; j++ {
		b[j] = '.'
	}
	return string(b)
}
