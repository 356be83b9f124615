package bench

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// countingRun wraps a run function and counts its calls per config label.
type countingRun struct {
	mu    sync.Mutex
	calls map[string]int
	run   func(Config) (Result, error)
}

func newCountingRun(run func(Config) (Result, error)) *countingRun {
	return &countingRun{calls: map[string]int{}, run: run}
}

func (c *countingRun) do(cfg Config) (Result, error) {
	c.mu.Lock()
	c.calls[cfgLabel(cfg)]++
	c.mu.Unlock()
	return c.run(cfg)
}

func cfgLabel(cfg Config) string {
	return fmt.Sprintf("%s/%s/%d/%d", cfg.System, cfg.Direction, cfg.Cores, cfg.MsgSize)
}

// awaitAll collects n runConfigs outcomes, failing the test instead of
// hanging if a requester is never completed.
func awaitAll(t *testing.T, n int, out <-chan error) []error {
	t.Helper()
	var errs []error
	for i := 0; i < n; i++ {
		select {
		case err := <-out:
			errs = append(errs, err)
		case <-time.After(30 * time.Second):
			t.Fatalf("requester %d of %d never completed", i+1, n)
		}
	}
	return errs
}

// TestRunMemoComputesEachConfigOnce has three concurrent "sections"
// request overlapping configs (one twice within a call) through one
// memo: the farm must execute each distinct config exactly once, and
// every requester must get the Result a direct Run gives.
func TestRunMemoComputesEachConfigOnce(t *testing.T) {
	farm := NewFarm(2)
	defer farm.Close()
	opt := Options{WindowMs: 0.25, Farm: farm, memo: newRunMemo()}
	noiommuRX := opt.config(SysNoIOMMU, RX, 1, 1024)
	copyRX := opt.config(SysCopy, RX, 1, 1024)
	copyTX := opt.config(SysCopy, TX, 1, 1024)
	strictRX := opt.config(SysLinuxStrict, RX, 1, 1024)
	sections := [][]Config{
		{noiommuRX, copyRX, copyTX},
		{copyRX, copyTX, strictRX},
		{copyRX, noiommuRX, copyRX},
	}
	results := make([][]Result, len(sections))
	errs := make([]error, len(sections))
	var wg sync.WaitGroup
	for i, cfgs := range sections {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = opt.runConfigs(append([]Config(nil), cfgs...),
				func(j int) string { return cfgLabel(cfgs[j]) })
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("section %d: %v", i, err)
		}
	}
	if got := farm.Stats().Executed; got != 4 {
		t.Errorf("farm executed %d points, want the 4 distinct configs", got)
	}
	for i, cfgs := range sections {
		for j, cfg := range cfgs {
			want, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(results[i][j], want) {
				t.Errorf("section %d point %d (%s): memo result differs from a direct Run", i, j, cfgLabel(cfg))
			}
		}
	}
}

// TestRunSuiteMemoIsPerCall checks that RunSuite wires a memo through its
// sections (Figure 1 is inside its extension, so it adds no points) and
// that a second call on the same farm shares nothing with the first.
func TestRunSuiteMemoIsPerCall(t *testing.T) {
	farm := NewFarm(2)
	defer farm.Close()
	opt := Options{WindowMs: 0.1, Systems: []string{SysNoIOMMU, SysCopy}, Farm: farm}
	sections := []Section{{"fig1", Fig1}, {"fig1ext", Fig1Extended}}
	var first []*Table
	for call := 1; call <= 2; call++ {
		tables, err := RunSuite(sections, opt, 0)
		if err != nil {
			t.Fatal(err)
		}
		// fig1ext is 2 systems x 5 core counts; fig1's 2 x 2 are among them.
		if got, want := farm.Stats().Executed, uint64(10*call); got != want {
			t.Errorf("after call %d: farm executed %d points, want %d", call, got, want)
		}
		for _, tb := range tables {
			tb.WallMs = 0
		}
		if call == 1 {
			first = tables
		} else if !reflect.DeepEqual(tables, first) {
			t.Error("a second RunSuite call produced different tables")
		}
	}
}

// TestRunMemoSharesFailures: a failing and a panicking shared point must
// reach every requester, each run once, and the panic must still satisfy
// IsPanic so the daemon retries it.
func TestRunMemoSharesFailures(t *testing.T) {
	farm := NewFarm(1)
	defer farm.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	runs := newCountingRun(func(cfg Config) (Result, error) {
		once.Do(func() { close(started) })
		<-release
		switch cfg.System {
		case SysCopy:
			return Result{}, errors.New("boom")
		case SysLinuxStrict:
			panic("bang")
		}
		return Result{Gbps: 1}, nil
	})
	m := newRunMemo()
	m.run = runs.do
	opt := Options{WindowMs: 0.25, Farm: farm, memo: m}
	cfgs := []Config{
		opt.config(SysNoIOMMU, RX, 1, 1024),
		opt.config(SysCopy, RX, 1, 1024),
		opt.config(SysLinuxStrict, RX, 1, 1024),
	}
	out := make(chan error, 2)
	request := func() {
		_, err := opt.runConfigs(append([]Config(nil), cfgs...), func(j int) string { return cfgLabel(cfgs[j]) })
		out <- err
	}
	go request()
	<-started // the first requester owns every entry now
	go request()
	close(release)
	for i, err := range awaitAll(t, 2, out) {
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Errorf("requester %d: err = %v, want the shared failure", i, err)
		}
		if !IsPanic(err) {
			t.Errorf("requester %d: err = %v, want an IsPanic error", i, err)
		}
	}
	for _, cfg := range cfgs {
		if n := runs.calls[cfgLabel(cfg)]; n != 1 {
			t.Errorf("%s ran %d times, want 1", cfgLabel(cfg), n)
		}
	}
	if st := farm.Stats(); st.Executed != 3 || st.Panics != 1 {
		t.Errorf("farm executed %d points with %d panics, want 3 and 1", st.Executed, st.Panics)
	}
}

// TestRunMemoCancelCompletesEveryRequester cancels a farm handle while
// one shared point runs and two wait in the queue: the running point
// finishes, the queued ones complete with ctx.Err() for both requesters,
// and nobody hangs.
func TestRunMemoCancelCompletesEveryRequester(t *testing.T) {
	farm := NewFarm(1)
	defer farm.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	runs := newCountingRun(func(Config) (Result, error) {
		once.Do(func() { close(started) })
		<-release
		return Result{Gbps: 1}, nil
	})
	m := newRunMemo()
	m.run = runs.do
	opt := Options{WindowMs: 0.25, Farm: farm.WithContext(ctx), memo: m}
	cfgs := []Config{
		opt.config(SysNoIOMMU, RX, 1, 1024),
		opt.config(SysCopy, RX, 1, 1024),
		opt.config(SysLinuxStrict, RX, 1, 1024),
	}
	out := make(chan error, 2)
	request := func() {
		_, err := opt.runConfigs(append([]Config(nil), cfgs...), func(j int) string { return cfgLabel(cfgs[j]) })
		out <- err
	}
	go request()
	<-started
	go request()
	cancel()
	close(release)
	for i, err := range awaitAll(t, 2, out) {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("requester %d: err = %v, want context.Canceled", i, err)
		}
	}
	total := 0
	for _, n := range runs.calls {
		total += n
	}
	if total != 1 {
		t.Errorf("%d points ran after the cancel, want only the one already running", total)
	}
	if st := farm.Stats(); st.Canceled != 2 {
		t.Errorf("farm canceled %d points, want 2", st.Canceled)
	}
}

// TestRunMemoNeverSharesObserved: a config with Obs set carries its own
// observer, so it is never merged with an equal config, observed or not,
// and each observed run gets its own profile.
func TestRunMemoNeverSharesObserved(t *testing.T) {
	opt := Options{WindowMs: 0.1, memo: newRunMemo()}
	plain := opt.config(SysCopy, RX, 1, 1024)
	a, b := plain, plain
	a.Obs, b.Obs = obs.New(false), obs.New(false)
	runs := newCountingRun(Run)
	opt.memo.run = runs.do
	res, err := opt.runConfigs([]Config{a, b, plain}, func(j int) string { return "p" })
	if err != nil {
		t.Fatal(err)
	}
	if n := runs.calls[cfgLabel(plain)]; n != 3 {
		t.Errorf("%d runs for 2 observed requests and 1 plain one, want 3", n)
	}
	if res[0].Profile == nil || res[1].Profile == nil || res[0].Profile == res[1].Profile {
		t.Error("observed runs must each carry their own profile")
	}
	if res[2].Profile != nil {
		t.Error("the unobserved run has a profile")
	}
}
