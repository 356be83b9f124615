package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runTraced measures a workload's per-layer metrics. It sets up once and
// reads simd's farm figures, runs passes until the run's time is up,
// every other one under the CPU profiler when the workload's tools can
// write a profile, and then runs every probe. The CPU shares and the
// profiler's overhead go to the run's detail: only reproduce writes a
// profile, so only the reproduce workloads have them.
func (r *runner) runTraced(w workload) (*result, error) {
	t := &tally{}
	wid := r.tr.newID()
	wstart := time.Now()
	defer func() { r.tr.record(wid, 0, w.name, "workload", 0, wstart, time.Now(), nil) }()

	expect := r.expectations(t, w.runs, wid)
	s, _, _, err := r.setUp(t, &speedometer{}, w, expect, wid, 1)
	if err != nil {
		return nil, err
	}
	h, err := s.client.Health()
	if serr := s.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	values := farmFigures(h)

	profiles := true
	for _, run := range w.runs {
		profiles = profiles && run.tool == "reproduce"
	}
	var plain, traced []float64
	tools := make([][]float64, len(w.runs))
	acc := map[string]int64{}
	for i, start := 0, time.Now(); time.Since(start) < r.seconds || (len(plain) < minPasses && t.failed == 0); i++ {
		prof := ""
		if profiles && i%2 == 1 {
			prof = filepath.Join(r.out, fmt.Sprintf("cpu-%s-%d.pprof", w.name, i))
		}
		p, per := r.pass(t, w.runs, r.seed, expect, "pass", wid, prof)
		if p.err != nil {
			continue
		}
		for k, q := range per {
			tools[k] = append(tools[k], q.wall.Seconds())
		}
		if prof == "" {
			plain = append(plain, p.wall.Seconds())
			continue
		}
		traced = append(traced, p.wall.Seconds())
		pf, err := readProfile(prof)
		if err != nil {
			return nil, err
		}
		pf.attribute(acc)
	}
	if len(plain) == 0 || (profiles && len(traced) == 0) {
		return nil, fmt.Errorf("%s: traced run: no pass succeeded: %s", w.name, firstProblem(t))
	}

	artifact, err := os.ReadFile(filepath.Join(r.refDir, "paper-smoke.json"))
	if err != nil {
		return nil, err
	}
	probeVals, err := runProbes(&probeEnv{dir: r.out, artifact: artifact}, false, r.tr, wid)
	if err != nil {
		return nil, err
	}
	for k, v := range probeVals {
		values[k] = v
	}
	res := &result{Workload: w.name, Seed: r.seed, Trace: true, Detail: map[string]float64{"n": float64(len(plain) + len(traced))}}
	for k, run := range w.runs {
		res.Detail[run.ref+".pass_s"] = median(tools[k])
	}
	if profiles {
		for k, v := range cpuShares(acc) {
			res.Detail[k] = v
		}
		res.Detail["trace.overhead_pct"] = 100 * (median(traced)/median(plain) - 1)
	}
	res.Metrics, err = withUnits(perLayer(), values)
	res.finish(t)
	return res, err
}
