// Command chaosbench runs the fault-injection scenarios of
// internal/chaos — fault storm, IOVA scan, invalidation-queue stall,
// shadow-pool squeeze — each as a baseline / resilience / unprotected
// triple, and reports goodput-under-attack and recovery metrics.
//
// Usage:
//
//	chaosbench [-seed 1] [-window 2] [-scenarios faultstorm,poolsqueeze]
//	chaosbench -json chaos.json        # machine-readable artifact
//	chaosbench -parallel 4             # variants fan out across a farm
//
// The run goes through daemon.Execute, the same path simd serves. Every
// scenario is deterministic for a given seed — the farm changes when
// variants run, never their numbers (doc/FARM.md) — so the JSON
// artifact is regression-gated in CI with cmd/benchdiff against
// ci/chaos-baseline.json (`make chaos-smoke`).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/bench"
	"repro/internal/daemon"
)

func main() {
	seed := flag.Int64("seed", 1, "deterministic scenario seed")
	window := flag.Float64("window", 2, "simulated milliseconds per variant")
	cores := flag.Int("cores", 2, "victim cores / NIC queues")
	system := flag.String("system", "strict", "victim protection strategy (strict|copy|identity+|...)")
	scenarios := flag.String("scenarios", "all", "comma-separated scenario names, or 'all'")
	parallel := flag.Int("parallel", 1, "farm workers for variant parallelism (<=0 = GOMAXPROCS, 1 = serial)")
	jsonOut := flag.String("json", "", "write a machine-readable artifact (internal/report schema) to this path")
	quiet := flag.Bool("q", false, "suppress the text tables")
	flag.Parse()

	spec, err := daemon.RunSpec{Tool: "chaosbench", Seed: *seed, WindowMs: *window,
		Cores: *cores, System: *system, Scenarios: *scenarios}.Normalize()
	if err != nil {
		log.Fatalf("chaosbench: %v", err)
	}
	var farm *bench.Farm
	if *parallel != 1 {
		farm = bench.NewFarm(*parallel)
		defer farm.Close()
	}
	res, err := daemon.Execute(context.Background(), farm, spec)
	if err != nil {
		log.Fatalf("chaosbench: %v", err)
	}
	if !*quiet {
		for _, t := range res.Tables {
			fmt.Println(t.String())
		}
	}
	if *jsonOut != "" {
		if err := res.Artifact.WriteFile(*jsonOut); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "chaosbench: wrote %s (%d experiments)\n", *jsonOut, len(res.Artifact.Experiments))
	}
}
