package tenant

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/bench"
)

func benchBytes(t *testing.T, parallel int) []byte {
	t.Helper()
	cfg := BenchConfig{
		Seed:         1,
		TenantCounts: []int{16, 64},
		FrameSizes:   []int{1500, 128},
	}
	if parallel != 1 {
		farm := bench.NewFarm(parallel)
		defer farm.Close()
		cfg.Farm = farm
	}
	tables, err := Bench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := bench.Artifact("tenantbench", SweepWindowMs, nil, tables).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTenantArtifactDeterminism is the farm contract for tenantbench:
// cells are independent machines in canonical order, so the JSON
// artifact must be byte-identical at any -parallel setting. Runs under
// `make race-smoke`, so it doubles as the cross-engine data-race check
// for concurrent tenant queue posting.
func TestTenantArtifactDeterminism(t *testing.T) {
	serial := benchBytes(t, 1)
	for _, par := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := benchBytes(t, par); !bytes.Equal(serial, got) {
			t.Fatalf("artifact differs at -parallel %d (%d vs %d bytes)",
				par, len(serial), len(got))
		}
	}
}

// TestTenantFarmPostingRace fans full hostile cells — every scheme, the
// scan flood, per-tenant rings hammered from datapath procs and the
// hostile refill path — across a maximal farm under -race.
func TestTenantFarmPostingRace(t *testing.T) {
	farm := bench.NewFarm(0) // GOMAXPROCS workers
	defer farm.Close()
	if _, _, err := Matrix(MatrixConfig{Seed: 5, Farm: farm}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Sweep(SweepConfig{
		Seed: 5, TenantCounts: []int{16, 128}, FrameSizes: []int{256}, Farm: farm,
	}); err != nil {
		t.Fatal(err)
	}
}
