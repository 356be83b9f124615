// Command attackbench runs the attack-campaign engine: every payload in
// internal/campaign's library — sub-page harvest, post-unmap replay,
// blind window discovery, descriptor-ring overrun, fault storm, hot-plug
// surprise removal, ATS-style spoof, allocator-reuse race, stale-data
// read, arbitrary scan — against every protection backend, and prints
// the resulting success matrix (the paper's Table 1 generalized to
// ~10 x 8).
//
// Usage:
//
//	attackbench [-seed 1] [-payloads replay-window,fault-storm] [-systems strict,copy]
//	attackbench -json attacks.json     # machine-readable artifact
//	attackbench -parallel 4            # cells fan out across a farm
//	attackbench -cpuprofile cpu.prof   # pprof CPU profile of the run
//	attackbench -memprofile mem.prof   # pprof heap profile at its end
//
// The run goes through daemon.Execute, the same path simd serves. Every
// cell is an independent deterministic simulation, so the JSON
// artifact is byte-identical at any -parallel setting. The attack gate
// of ci/gates.json runs the same spec at seed 1, and `make smoke`
// compares it exactly with ci/attack-baseline.json through
// cmd/benchdiff: any cell flip — a defense newly broken or newly
// effective — fails the build.
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
	payloads string
	systems  string
	parallel int
	jsonOut  string
	quiet    bool
	// cpuProfile, when set, receives a pprof CPU profile of the run;
	// memProfile, when set, a pprof heap profile at its end.
	cpuProfile string
	memProfile string
}

func run(opts options, stdout, stderr io.Writer) error {
	spec, err := daemon.RunSpec{Tool: "attackbench", Seed: opts.seed,
		Payloads: opts.payloads, Systems: opts.systems}.Normalize()
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
	tb := res.Tables[0]
	if !opts.quiet {
		fmt.Fprintln(stdout, tb.String())
		systems := tb.Columns[1:] // the matrix columns after "payload"
		breaches := make(map[string]int)
		for i, r := range res.Cells {
			if r.Success {
				breaches[systems[i%len(systems)]]++
			}
		}
		for _, sys := range systems {
			fmt.Fprintf(stdout, "%-10s breached by %d/%d payloads\n",
				sys, breaches[sys], len(res.Cells)/len(systems))
		}
	}
	if opts.jsonOut != "" {
		if err := res.Artifact.WriteFile(opts.jsonOut); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "attackbench: wrote %s (%d cells)\n", opts.jsonOut, len(res.Cells))
	}
	return nil
}

func main() {
	var opts options
	flag.Int64Var(&opts.seed, "seed", 1, "deterministic campaign seed")
	flag.StringVar(&opts.payloads, "payloads", "all", "comma-separated payload names, or 'all'")
	flag.StringVar(&opts.systems, "systems", "all", "comma-separated protection backends, or 'all'")
	flag.IntVar(&opts.parallel, "parallel", 1, "farm workers for cell parallelism (<=0 = GOMAXPROCS, 1 = serial)")
	flag.StringVar(&opts.jsonOut, "json", "", "write a machine-readable artifact (internal/report schema) to this path")
	flag.BoolVar(&opts.quiet, "q", false, "suppress the text matrix")
	flag.StringVar(&opts.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	flag.StringVar(&opts.memProfile, "memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	if err := run(opts, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "attackbench: %v\n", err)
		os.Exit(1)
	}
}
