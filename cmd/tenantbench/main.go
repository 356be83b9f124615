// Command tenantbench benchmarks the multi-tenant kernel-bypass
// datapath (internal/tenant): three protection schemes — the
// unprotected shared-queue baseline, CAPIO-style capability-checked
// descriptors, and per-tenant shadow-copy rings — against a hostile
// tenant mounted from the attack-program library, producing both the
// isolation matrix (which schemes contain arbitrary-scan / ring-overrun
// / stale-replay) and the isolation-vs-throughput sweep across tenant
// counts up to 1024 queues.
//
// Usage:
//
//	tenantbench [-seed 1] [-schemes capability,shadow-copy] [-attacks stale-replay]
//	tenantbench -tenants 16,256,1024 -frames 1500,256,128
//	tenantbench -parallel 4 -json tenants.json
//	tenantbench -cpuprofile cpu.prof   # pprof CPU profile of the run
//	tenantbench -memprofile mem.prof   # pprof heap profile at its end
//
// The run goes through daemon.Execute, the same path simd serves. Every
// cell is an independent deterministic simulation, so the JSON
// artifact is byte-identical at any -parallel setting. The tenant gate
// of ci/gates.json runs the same spec at seed 1, and `make smoke`
// compares it exactly with ci/tenant-baseline.json through
// cmd/benchdiff: any isolation-cell flip or goodput drift fails the
// build.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/daemon"
	"repro/internal/obs"
)

type options struct {
	seed     int64
	schemes  string
	attacks  string
	tenants  string
	frames   string
	parallel int
	jsonOut  string
	quiet    bool
	// cpuProfile, when set, receives a pprof CPU profile of the run;
	// memProfile, when set, a pprof heap profile at its end.
	cpuProfile string
	memProfile string
}

func run(opts options, stdout, stderr io.Writer) error {
	spec, err := daemon.RunSpec{Tool: "tenantbench", Seed: opts.seed, Schemes: opts.schemes,
		Attacks: opts.attacks, Tenants: opts.tenants, Frames: opts.frames}.Normalize()
	if err != nil {
		return err
	}
	stop, err := obs.StartProfiles(opts.cpuProfile, opts.memProfile)
	if err != nil {
		return err
	}
	defer stop()
	var farm *bench.Farm
	if opts.parallel != 1 {
		farm = bench.NewFarm(opts.parallel)
		defer farm.Close()
	}
	res, err := daemon.Execute(context.Background(), farm, spec)
	if err != nil {
		return err
	}
	if !opts.quiet {
		for _, tb := range res.Tables {
			fmt.Fprintln(stdout, tb.String())
		}
	}
	if opts.jsonOut != "" {
		if err := res.Artifact.WriteFile(opts.jsonOut); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "tenantbench: wrote %s (%d experiments)\n",
			opts.jsonOut, len(res.Artifact.Experiments))
	}
	return nil
}

func main() {
	var opts options
	flag.Int64Var(&opts.seed, "seed", 1, "deterministic sweep seed")
	flag.StringVar(&opts.schemes, "schemes", "all", "comma-separated protection schemes, or 'all'")
	flag.StringVar(&opts.attacks, "attacks", "all", "comma-separated hostile programs for the matrix, or 'all'")
	flag.StringVar(&opts.tenants, "tenants", "", "comma-separated tenant counts for the sweep (default 16,256,1024)")
	flag.StringVar(&opts.frames, "frames", "", "comma-separated frame sizes for the sweep (default 1500,256,128)")
	flag.IntVar(&opts.parallel, "parallel", 1, "farm workers for cell parallelism (<=0 = GOMAXPROCS, 1 = serial)")
	flag.StringVar(&opts.jsonOut, "json", "", "write a machine-readable artifact (internal/report schema) to this path")
	flag.BoolVar(&opts.quiet, "q", false, "suppress the text tables")
	flag.StringVar(&opts.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	flag.StringVar(&opts.memProfile, "memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	if err := run(opts, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "tenantbench: %v\n", err)
		os.Exit(1)
	}
}
