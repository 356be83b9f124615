package daemon

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/report"
)

// decodeArt decodes a served artifact or fails the test.
func decodeArt(t *testing.T, raw []byte) *report.Artifact {
	t.Helper()
	a, err := report.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decoding daemon artifact: %v", err)
	}
	return a
}

// expNames lists an artifact's experiment names in order.
func expNames(a *report.Artifact) []string {
	out := make([]string, len(a.Experiments))
	for i, e := range a.Experiments {
		out[i] = e.Name
	}
	return out
}

// hostFree encodes an artifact without what differs between two runs of
// the same code: the created_at stamp, wall times and the farm table.
func hostFree(t *testing.T, a *report.Artifact) []byte {
	t.Helper()
	a.CreatedAt = ""
	exps := a.Experiments[:0]
	for _, e := range a.Experiments {
		if e.Name != "farm" {
			e.WallMs = 0
			exps = append(exps, e)
		}
	}
	a.Experiments = exps
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// serial runs spec through Execute on no farm, as the one-shot tools do
// at -parallel 1.
func serial(t *testing.T, spec RunSpec) *Result {
	t.Helper()
	n, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(context.Background(), nil, n)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDaemonServesByteIdenticalToOneShot holds the one run path to its
// contract for every tool: a serial Execute and the daemon's reply (farm,
// then store) are the same artifact once host-time fields are stripped.
func TestDaemonServesByteIdenticalToOneShot(t *testing.T) {
	_, c := testDaemon(t, nil)
	for _, tc := range []struct {
		spec RunSpec
		exps []string // served experiment names, in order
	}{
		{RunSpec{Tool: "reproduce", WindowMs: 0.5, SkipSensitivity: true, Experiments: "fig3,table1"},
			[]string{"table1", "fig3", "farm"}},
		{fastSpec(), []string{"chaos-faultstorm"}},
		{RunSpec{Tool: "attackbench", Payloads: "subpage-harvest", Systems: "strict,no iommu"},
			[]string{"campaign"}},
		{RunSpec{Tool: "tenantbench", Tenants: "2", Frames: "1500"},
			[]string{"tenantmatrix", "tenantsweep"}},
	} {
		t.Run(tc.spec.Tool, func(t *testing.T) {
			want := hostFree(t, serial(t, tc.spec).Artifact)
			resp := mustRun(t, c, tc.spec, false)
			a := decodeArt(t, resp.Artifact)
			if got := expNames(a); !slices.Equal(got, tc.exps) {
				t.Fatalf("experiments = %v, want %v", got, tc.exps)
			}
			if a.Tool != tc.spec.Tool {
				t.Errorf("tool = %q", a.Tool)
			}
			if got := hostFree(t, a); !bytes.Equal(got, want) {
				t.Fatalf("daemon artifact differs from serial Execute (%d vs %d bytes)", len(got), len(want))
			}
			// Second request: the same bytes again, this time from the store.
			resp2 := mustRun(t, c, tc.spec, false)
			if !resp2.Cached {
				t.Error("second identical request not served from cache")
			}
			if !bytes.Equal(resp2.Artifact, resp.Artifact) {
				t.Fatal("cached artifact differs from the computed one")
			}
		})
	}
}

func TestDaemonExecReproduceWithTable1(t *testing.T) {
	res := serial(t, RunSpec{Tool: "reproduce", WindowMs: 0.5, SkipSensitivity: true, Experiments: "table1,fig3"})
	if len(res.Tables) != 2 || res.Tables[0].Name != "table1" || res.Tables[1].Name != "fig3" {
		t.Fatalf("print tables = %d, want [table1 fig3] (no farm table)", len(res.Tables))
	}
	if len(res.Artifact.Attacks) == 0 {
		t.Error("table1 run produced no attack verdicts")
	}
	if res.Artifact.CreatedAt == "" {
		t.Error("reproduce artifact missing created_at stamp")
	}
}

// TestDaemonExecTable1RunsOnTheFarm: Table 1 is a suite section, so its
// twelve throughput points (six systems at 1 and 16 cores) and its six
// attack machines all run as farm points, which keeps -parallel an exact
// bound on concurrent simulations. Alongside Figure 1 its throughputs
// come from the run memo and add no points. The runs share one farm, as
// simd's requests do, so each artifact's farm table must count its own
// points alone, whether the runs come one after another or at once.
func TestDaemonExecTable1RunsOnTheFarm(t *testing.T) {
	farm := bench.NewFarm(2)
	defer farm.Close()
	cases := []struct {
		experiments string
		points      float64
	}{
		{"table1", 12 + 6},
		{"table1,fig1", 12 + 6},
	}
	run := func(experiments string) (float64, error) {
		spec, err := RunSpec{Tool: "reproduce", WindowMs: 0.25, SkipSensitivity: true, Experiments: experiments}.Normalize()
		if err != nil {
			return 0, err
		}
		res, err := Execute(context.Background(), farm, spec)
		if err != nil {
			return 0, err
		}
		return res.Artifact.Experiment("farm").Series[0].Points[0].Metrics["farm.executed"], nil
	}
	var total uint64
	for _, tc := range cases {
		got, err := run(tc.experiments)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.points {
			t.Errorf("-experiment %s: artifact's farm.executed = %v, want its own %v points", tc.experiments, got, tc.points)
		}
		total += uint64(tc.points)
		if got := farm.Stats().Executed; got != total {
			t.Errorf("-experiment %s: farm executed %d points in all, want %d", tc.experiments, got, total)
		}
	}
	var wg sync.WaitGroup
	for _, tc := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := run(tc.experiments)
			if err != nil {
				t.Error(err)
			} else if got != tc.points {
				t.Errorf("-experiment %s beside another run: farm.executed = %v, want %v", tc.experiments, got, tc.points)
			}
		}()
	}
	wg.Wait()
}

func TestDaemonExecTenantBadCounts(t *testing.T) {
	_, c := testDaemon(t, nil)
	resp, err := c.Run(RunSpec{Tool: "tenantbench", Tenants: "two"}, 0, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("malformed tenant counts accepted")
	}
	if resp.ErrKind != ErrKindBadRequest {
		t.Errorf("err kind = %q, want %q", resp.ErrKind, ErrKindBadRequest)
	}
}

func TestExecuteCanceledReturnsPartialArtifact(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec, err := RunSpec{Tool: "reproduce", WindowMs: 0.5, Experiments: "fig3"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(ctx, nil, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Artifact == nil || res.Artifact.Tool != "reproduce" {
		t.Fatalf("no partial artifact on failure: %+v", res)
	}
}

func TestDaemonNonPanicErrorIsNotRetried(t *testing.T) {
	d, _ := testDaemon(t, nil)
	var calls int
	d.execute = func(context.Context, *bench.Farm, RunSpec) (*Result, error) {
		calls++
		// Text that the old string-matched retry treated as transient.
		return nil, errors.New("store: simulated failure")
	}
	_, err := d.computeWithRetry(context.Background(), fastSpec())
	if err == nil {
		t.Fatal("error swallowed")
	}
	if calls != 1 || d.retries.Load() != 0 {
		t.Errorf("calls=%d retries=%d, want 1 call and 0 retries", calls, d.retries.Load())
	}
}
