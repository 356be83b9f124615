package ssd

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestPayloadFillMatchesRandRead checks payloadFill against rand.Read on
// two generators with the same seed: every payload is byte-identical, and
// the Uint64 and Intn draws RunWorkload makes between payloads stay in
// step, so the workload's LBA and read/write sequence cannot move.
func TestPayloadFillMatchesRandRead(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 4096, 65536, 262144}
	sequences := [][]int{
		{1, 2, 3, 4, 5, 6, 7, 8},
		{4096},
		{65536},
		{262144},
		{3, 4096, 5, 65536, 1, 262144, 7, 8},
		{6, 6, 6, 4096, 2, 2, 65536},
	}
	for _, n := range sizes {
		sequences = append(sequences, []int{n, n, n})
	}
	for si, seq := range sequences {
		want := rand.New(rand.NewSource(int64(si) + 1))
		got := rand.New(rand.NewSource(int64(si) + 1))
		fill := payloadFill{rng: got}
		for i, n := range seq {
			a, b := make([]byte, n), make([]byte, n)
			want.Read(a)
			fill.fill(b)
			if !bytes.Equal(a, b) {
				t.Fatalf("sequence %v, payload %d (%d bytes) differs from rand.Read", seq, i, n)
			}
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("sequence %v, after payload %d: Uint64 %d, want %d", seq, i, g, w)
			}
			if w, g := want.Intn(100), got.Intn(100); w != g {
				t.Fatalf("sequence %v, after payload %d: Intn %d, want %d", seq, i, g, w)
			}
		}
	}
}
