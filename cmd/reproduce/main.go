// Command reproduce regenerates the paper's ENTIRE evaluation — every
// table and figure, the attack matrix, the memory measurement — plus this
// reproduction's extension studies, as one self-contained report. The
// run goes through daemon.Execute, the same path simd serves. Every
// section's individual data points fan out across one shared bench.Farm
// (bounded by -parallel); the printed report order and every number are
// unchanged at any worker count (see doc/FARM.md).
//
//	go run ./cmd/reproduce > report.txt
//	go run ./cmd/reproduce -window 1 -json BENCH_smoke.json
//	go run ./cmd/reproduce -experiment fig3,storage -parallel 4
//
// With -json the same results are also written as a machine-readable
// artifact (internal/report schema) for the cmd/benchdiff regression gate.
// "-json auto" derives the filename as BENCH_<YYYY-MM-DD>.json. When a
// section fails, the completed sections are still written to the -json
// path as a partial diagnostic artifact.
//
// -timeout bounds the whole run: on expiry the farm cancels queued data
// points, the completed sections land in the partial artifact, and the
// process exits 1 (a hard watchdog force-exits at 2x if cancellation
// wedges). -daemon <socket> skips in-process computation entirely and
// requests the artifact from a running simd (doc/DAEMON.md), which serves
// memoized results instantly when the tree hasn't changed.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/daemon"
	"repro/internal/prof"
	"repro/internal/report"
)

func artifactPath(jsonOut string) string {
	if jsonOut == "auto" {
		return fmt.Sprintf("BENCH_%s.json", time.Now().Format("2006-01-02"))
	}
	return jsonOut
}

func main() {
	window := flag.Float64("window", 10, "simulated milliseconds per data point")
	skipSensitivity := flag.Bool("skip-sensitivity", false, "skip the (slow) sensitivity analysis")
	jsonOut := flag.String("json", "", "also write a machine-readable artifact to this path (\"auto\" = BENCH_<date>.json)")
	parallel := flag.Int("parallel", 0, "farm workers for data-point parallelism (<=0 = GOMAXPROCS)")
	experiment := flag.String("experiment", "all", "comma-separated experiment names (fig1,fig3,...,table1), or 'all'")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	cycleReport := flag.Bool("cyclereport", false, "append the cycle-attribution tables (simulated-cycle profiler, doc/OBSERVABILITY.md)")
	traceFile := flag.String("tracefile", "", "write a Chrome trace-event JSON (Perfetto-loadable) of the 16-core RX workload to this path")
	timeout := flag.Duration("timeout", 0, "abort after this wall-clock duration; completed sections become a partial diagnostic artifact (0 = unbounded)")
	daemonSock := flag.String("daemon", "", "request the artifact from a running simd daemon at this unix socket instead of computing in-process")
	flag.Parse()

	spec, err := daemon.RunSpec{Tool: "reproduce", WindowMs: *window,
		SkipSensitivity: *skipSensitivity, Experiments: *experiment}.Normalize()
	if err != nil {
		log.Fatalf("reproduce: %v", err)
	}
	if *daemonSock != "" {
		runViaDaemon(*daemonSock, spec, *timeout, *jsonOut)
		return
	}

	stop, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer stop()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
		// Hard watchdog: cooperative cancellation drains the farm queue but
		// lets executing points finish; if one wedges, force the exit at 2x.
		time.AfterFunc(2*(*timeout), func() {
			fmt.Fprintf(os.Stderr, "reproduce: watchdog: run still alive %s after the %s timeout, force-exiting\n",
				*timeout, *timeout)
			os.Exit(1)
		})
	}

	farm := bench.NewFarm(*parallel)
	defer farm.Close()
	start := time.Now()

	fmt.Println("Reproduction report: True IOMMU Protection from DMA Attacks (ASPLOS'16)")
	fmt.Printf("window: %.0f simulated ms per data point\n\n", spec.WindowMs)

	res, err := daemon.Execute(ctx, farm, spec)
	if err != nil {
		// The completed sections are still worth a record when a long run
		// dies near the end: write them as a partial diagnostic artifact.
		if ctx.Err() != nil {
			// err is an errors.Join over every canceled point — hundreds of
			// identical lines; the timeout itself is the whole story.
			log.Printf("reproduce: timed out after %s, queued data points canceled", *timeout)
		} else {
			log.Printf("reproduce: %v", err)
		}
		if *jsonOut != "" && res != nil {
			path := artifactPath(*jsonOut)
			if werr := res.Artifact.WriteFile(path); werr != nil {
				log.Printf("reproduce: writing partial artifact: %v", werr)
			} else {
				fmt.Fprintf(os.Stderr, "reproduce: partial diagnostic artifact written to %s\n", path)
			}
		}
		os.Exit(1)
	}
	for _, t := range res.Tables {
		fmt.Println(t)
	}
	a := res.Artifact
	if *cycleReport {
		cts, err := bench.CycleReport(bench.Options{WindowMs: spec.WindowMs})
		if err != nil {
			log.Fatalf("cycle report: %v", err)
		}
		// The cycle tables precede the farm table, which closes the artifact.
		farmExp := a.Experiments[len(a.Experiments)-1]
		a.Experiments = a.Experiments[:len(a.Experiments)-1]
		for _, t := range cts {
			fmt.Println(t)
			a.Add(t.Experiment())
		}
		a.Add(farmExp)
	}
	if *traceFile != "" {
		cfg := bench.DefaultConfig(bench.SysLinuxStrict, bench.RX, 16, 1500)
		cfg.WindowMs = spec.WindowMs
		if _, err := bench.WriteTrace(cfg, *traceFile); err != nil {
			log.Fatalf("trace: %v", err)
		}
		fmt.Printf("Chrome trace written to %s (load at https://ui.perfetto.dev)\n\n", *traceFile)
	}
	// Farm scheduling stats go to stderr for humans; the artifact carries
	// them as diff-exempt farm.* metrics.
	fs := farm.Stats()
	fmt.Fprintf(os.Stderr, "farm: %d workers, %d points, %d steals, queue hwm %d, mean util %.0f%%, wall %s\n",
		fs.Workers, fs.Executed, fs.Steals, fs.QueueHWM, fs.MeanUtilPct(),
		time.Since(start).Round(time.Millisecond))
	fmt.Printf("report complete in %s (wall clock)\n", time.Since(start).Round(time.Second))

	if *jsonOut != "" {
		path := artifactPath(*jsonOut)
		if err := a.WriteFile(path); err != nil {
			log.Fatalf("writing artifact: %v", err)
		}
		fmt.Printf("artifact written to %s\n", path)
	}
}

// runViaDaemon delegates the whole run to a simd daemon. The daemon
// computes with its warm farm (or serves the memoized artifact when the
// same binary already ran this spec) and returns the identical
// internal/report artifact the in-process path would have written, for
// the same normalized spec.
func runViaDaemon(socket string, spec daemon.RunSpec, timeout time.Duration, jsonOut string) {
	c := &daemon.Client{Socket: socket}
	start := time.Now()
	// noDegrade: the caller asked for the real report, never a preview.
	resp, err := c.Run(spec, timeout, false, true)
	if err != nil {
		log.Fatalf("reproduce: daemon: %v", err)
	}
	if !resp.OK {
		log.Fatalf("reproduce: daemon: %s: %s", resp.ErrKind, resp.Err)
	}
	a, err := report.Decode(bytes.NewReader(resp.Artifact))
	if err != nil {
		log.Fatalf("reproduce: daemon artifact: %v", err)
	}
	state := "computed"
	if resp.Cached {
		state = "memoized"
	}
	fmt.Fprintf(os.Stderr, "reproduce: %s by daemon in %s: %d experiments, %d bytes, key %.12s\n",
		state, time.Since(start).Round(time.Millisecond), len(a.Experiments), len(resp.Artifact), resp.Key)
	if jsonOut != "" {
		path := artifactPath(jsonOut)
		if err := os.WriteFile(path, resp.Artifact, 0o644); err != nil {
			log.Fatalf("reproduce: writing artifact: %v", err)
		}
		fmt.Printf("artifact written to %s\n", path)
		return
	}
	os.Stdout.Write(resp.Artifact)
}
