// Command benchmark is the repository's end-to-end benchmark. It builds
// the shipped tools from source and drives them the way users do: the
// one-shot reproduce, attackbench, tenantbench and chaosbench processes,
// and the simd daemon over its socket. Every simulated output is checked
// against the committed references in ref/, and every metric is printed
// by name and unit. A traced run (-trace 1) reports per-layer metrics
// instead: probes timing each layer's public functions and simd's farm
// figures, with reproduce's CPU profiles attributed to packages in its
// detail. See README.md.
//
//	bash benchmark/run.sh -workload paper-smoke -seed 1 -seconds 30 -trace 0
//	bash benchmark/run.sh -seed 7 -json set.json
//	bash benchmark/run.sh -compare a.json b.json
//
// The last line of standard output is one JSON object per workload run:
// {"correct":..., "attempted":..., "failed":..., "metrics":{...}}.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs: the tool runs of one
// pass, each also requested from simd.
type workload struct {
	name, why string
	runs      []toolRun
}

var workloads = []workload{
	{
		"paper-smoke",
		"reproduce at window 1 (every figure plus Table 1), what every user and every change runs, one-shot and from simd; host CPU spread over sim, mem, nic, ssd, iommu",
		[]toolRun{paperSmokeRun},
	},
	{
		"manycore",
		"reproduce fig1ext, 6 systems at 1-128 cores, one-shot and from simd: bound by the scheduler and spinlocks, so engine and IOVA gains show and copy-path gains should not",
		[]toolRun{manycoreRun},
	},
	{
		"security",
		"attackbench, tenantbench and chaosbench back to back, one-shot and from simd: device-initiated DMA, 88 short-lived attack machines and 128-byte tenant frames",
		securityRuns,
	},
}

// tools are the commands the benchmark builds and drives.
var tools = []string{"reproduce", "attackbench", "tenantbench", "chaosbench", "simd"}

func main() { os.Exit(run()) }

func run() int {
	names := flag.String("workload", "all", "comma-separated workloads to run, or 'all'")
	seed := flag.Int64("seed", 1, "workload seed: the security tools' seed")
	seconds := flag.Float64("seconds", 30, "how long each workload measures")
	trace := flag.Int("trace", 0, "1 = the traced run: per-layer metrics instead of end-to-end ones")
	out := flag.String("out", "", "keep artifacts, profiles, stores and spans.json here (default: a temporary directory, removed)")
	jsonOut := flag.String("json", "", "append each run's result to this result-set file (created if missing)")
	compare := flag.Bool("compare", false, "compare two result-set files: -compare A.json B.json")
	writeRef := flag.Bool("write-ref", false, "regenerate the references in ref/ from the current code")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		return runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	selected, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	if err := execute(selected, *seed, *seconds, *trace == 1, *out, *jsonOut, *writeRef); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}

func selectWorkloads(list string) ([]workload, error) {
	if list == "all" {
		return workloads, nil
	}
	var out []workload
	for _, name := range strings.Split(list, ",") {
		found := false
		for _, w := range workloads {
			if w.name == strings.TrimSpace(name) {
				out = append(out, w)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

// errIncorrect marks a run whose outputs missed the oracle or whose
// operations failed; its result has been printed.
var errIncorrect = errors.New("a workload run was not correct")

func execute(selected []workload, seed int64, seconds float64, trace bool, out, jsonOut string, writeRef bool) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	if err := os.Chdir(root); err != nil {
		return err
	}
	bin := filepath.Join(root, ".bench_build", "bin")
	if err := buildTools(root, bin); err != nil {
		return err
	}
	keep := out != ""
	if keep {
		err = os.MkdirAll(out, 0o755)
	} else {
		out, err = os.MkdirTemp("", "bench-")
	}
	if err != nil {
		return err
	}
	if out, err = filepath.Abs(out); err != nil {
		return err
	}
	if !keep {
		defer os.RemoveAll(out)
	}
	r := &runner{
		root: root, refDir: filepath.Join(root, "benchmark", "ref"), bin: bin, out: out,
		seed: seed, seconds: time.Duration(seconds * float64(time.Second)), tr: newTracer(),
	}
	if writeRef {
		return r.writeRefs()
	}
	if r.refs, err = loadRefs(r.refDir); err != nil {
		return err
	}
	incorrect := false
	for _, w := range selected {
		measure := r.measure
		if trace {
			measure = r.runTraced
		}
		res, err := measure(w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := printResult(os.Stdout, res); err != nil {
			return err
		}
		if jsonOut != "" {
			if err := appendResult(jsonOut, res); err != nil {
				return err
			}
		}
		incorrect = incorrect || !res.Correct
	}
	if keep {
		if err := r.tr.write(filepath.Join(out, "spans.json")); err != nil {
			return err
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// findRoot walks up from the working directory to the repository root:
// the directory whose go.mod declares module repro.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if f, err := os.Open(filepath.Join(dir, "go.mod")); err == nil {
			line, _ := bufio.NewReader(f).ReadString('\n')
			f.Close()
			if strings.TrimSpace(line) == "module repro" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the repository: no go.mod declaring module repro")
		}
		dir = parent
	}
}

// buildTools builds the driven tools from source into bin.
func buildTools(root, bin string) error {
	args := []string{"build", "-buildvcs=false", "-o", bin + string(filepath.Separator)}
	for _, t := range tools {
		args = append(args, "./cmd/"+t)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building the tools: %v\n%s", err, out)
	}
	return nil
}

// printResult writes a run for people, then its one-line JSON result.
func printResult(w io.Writer, res *result) error {
	decls := endToEnd
	if res.Trace {
		decls = perLayer()
	}
	verdict := "correct"
	if !res.Correct {
		verdict = "NOT CORRECT"
	}
	fmt.Fprintf(w, "== %s  seed %d  trace %v  %s  attempted %d  failed %d\n",
		res.Workload, res.Seed, res.Trace, verdict, res.Attempted, res.Failed)
	for _, d := range decls {
		m := res.Metrics[d.Name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s is %v", res.Workload, d.Name, m.Value)
		}
		fmt.Fprintf(w, "   %-36s %14.4f %s\n", d.Name, m.Value, d.Unit)
	}
	var detail []string
	for _, k := range sortedKeys(res.Detail) {
		detail = append(detail, fmt.Sprintf("%s=%.6g", k, res.Detail[k]))
	}
	fmt.Fprintf(w, "   detail: %s\n", strings.Join(detail, " "))
	for _, p := range res.Problems {
		fmt.Fprintf(w, "   problem: %s\n", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// resultSet is a -json file: the host it ran on and every run appended.
type resultSet struct {
	Host hostInfo `json:"host"`
	Runs []result `json:"runs"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentHost() hostInfo {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = string(bytes.TrimSpace(out))
	}
	return hostInfo{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit}
}

func loadSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// appendResult adds a run to a result-set file.
func appendResult(path string, res *result) error {
	s, err := loadSet(path)
	if errors.Is(err, os.ErrNotExist) {
		s, err = &resultSet{Host: currentHost()}, nil
	}
	if err != nil {
		return err
	}
	s.Runs = append(s.Runs, *res)
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
