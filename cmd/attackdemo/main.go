// Command attackdemo runs the DMA attack suite against every protection
// strategy and prints the resulting security matrix (the paper's Table 1).
// With -window-sweep it additionally sweeps the replay delay after
// dma_unmap to chart the deferred-protection vulnerability window (§3:
// buffers can remain device-writable for up to 10 ms).
//
// A failed scenario no longer aborts the whole demo: the remaining
// systems still run and print, the failure is reported per-system, and
// the process exits non-zero.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/trace"
)

type options struct {
	sweep     bool
	window    float64
	showTrace bool
	jsonOut   string
	systems   []string
}

// run executes the demo and returns an error if any scenario failed —
// after printing every system's (possibly partial) outcome, so one bad
// cell does not hide the rest of the matrix.
func run(opts options, stdout io.Writer) error {
	if opts.showTrace {
		if err := dumpAttackTrace(stdout); err != nil {
			return err
		}
	}

	fmt.Fprintln(stdout, "Attacking every protection strategy with a compromised device...")
	fmt.Fprintln(stdout, "(includes the related-work designs: swiotlb bounce buffers and the")
	fmt.Fprintln(stdout, " Basu et al. self-invalidating IOMMU with a 20us entry TTL)")
	fmt.Fprintln(stdout)
	var failures []string
	for _, sys := range opts.systems {
		results, faults, err := campaign.RunTable1(sys, nil)
		if err != nil {
			// Partial failure: surface the error, keep the partial outcome
			// visible, and keep going — the other systems' results matter.
			failures = append(failures, fmt.Sprintf("%s: %v", sys, err))
			fmt.Fprintf(stdout, "%-10s FAILED: %v\n", sys, err)
			continue
		}
		leak, window, arbitrary := results[0], results[1], results[2]
		fmt.Fprintf(stdout, "%-10s sub-page leak: %-5v  post-unmap write landed: %-5v  arbitrary DMA: %-5v  faults blocked: %d\n",
			sys, leak.Success, window.Success, arbitrary.Success, faults)
		if leak.Success {
			fmt.Fprintf(stdout, "           leaked co-located secret: %q\n", leak.Leaked)
		}
	}
	fmt.Fprintln(stdout)

	verdicts, table, err := campaign.Table1(bench.Options{WindowMs: opts.window})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, table)
	if opts.jsonOut != "" {
		a := bench.Artifact("attackdemo", opts.window, nil, []*bench.Table{table})
		a.CreatedAt = time.Now().UTC().Format(time.RFC3339)
		a.Attacks = verdicts
		if err := a.WriteFile(opts.jsonOut); err != nil {
			return err
		}
	}

	if opts.sweep {
		delays := []float64{1, 10, 100, 1000, 5000, 9000, 11000, 20000}
		for _, sys := range []string{bench.SysLinuxDefer, bench.SysIdentityDefer, bench.SysSelfInval, bench.SysLinuxStrict, bench.SysCopy} {
			samples, err := campaign.WindowSweep(sys, delays)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "replay-after-unmap sweep, %s:\n", sys)
			for _, s := range samples {
				verdict := "blocked"
				if s.Landed {
					verdict = "WRITE LANDED"
				}
				fmt.Fprintf(stdout, "  +%8.0f us: %s\n", s.DelayUs, verdict)
			}
			fmt.Fprintln(stdout)
		}
	}

	if len(failures) > 0 {
		return fmt.Errorf("%d of %d systems failed:\n  %s",
			len(failures), len(opts.systems), strings.Join(failures, "\n  "))
	}
	return nil
}

func main() {
	var opts options
	flag.BoolVar(&opts.sweep, "window-sweep", false, "sweep post-unmap replay delays")
	flag.Float64Var(&opts.window, "window", 10, "simulated ms per perf measurement")
	flag.BoolVar(&opts.showTrace, "trace", false, "dump the IOMMU event trace of one attack run")
	flag.StringVar(&opts.jsonOut, "json", "", "also write a machine-readable artifact (internal/report schema) to this path")
	systems := flag.String("systems", "", "comma-separated systems to attack (default: all)")
	flag.Parse()

	opts.systems = bench.ExtendedSystems
	if *systems != "" {
		opts.systems = strings.Split(*systems, ",")
	}
	if err := run(opts, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "attackdemo: %v\n", err)
		os.Exit(1)
	}
}

// dumpAttackTrace replays the deferred-window attack against Linux
// deferred protection with IOMMU tracing on, showing the map, the unmap,
// the attacker's writes slipping through, and the batched invalidation.
func dumpAttackTrace(stdout io.Writer) error {
	fmt.Fprintln(stdout, "IOMMU event trace of the deferred-window attack (system: defer):")
	tr := trace.New(64)
	results, _, err := campaign.RunTable1(bench.SysLinuxDefer, tr)
	if err != nil {
		return err
	}
	tr.Dump(stdout)
	fmt.Fprintf(stdout, "(attack outcome: post-unmap write landed = %v)\n\n", results[1].Success)
	return nil
}
