package bench

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/cycles"
)

// runMemo shares simulated points between the sections of one report.
// Many sections run the same machine: Figure 1 is a subset of its
// extension, Figures 5, 8a and 10 and the memory study are points of
// Figures 3, 4, 6, 7 and 9, and Table 1 reads Figure 1's throughputs.
// A point is a pure function of its Config, so each distinct config is
// simulated once per report and every section that asks for it gets the
// same Result.
//
// RunSuite creates one memo per call, so concurrent reports (daemon
// requests) never share entries or each other's cancellations, and a
// long-running daemon does not accumulate results.
type runMemo struct {
	mu      sync.Mutex
	entries map[memoKey]*memoEntry
	// run computes one point; tests substitute failing or blocking runs.
	run func(Config) (Result, error)
}

// memoKey is a Config by value: the cost model is copied in, and Obs is
// always nil (observed configs are never shared).
type memoKey struct {
	cfg   Config
	costs cycles.Costs
}

// memoEntry is one point's outcome; done is closed once res and err are
// final.
type memoEntry struct {
	done chan struct{}
	res  Result
	err  error
}

func newRunMemo() *runMemo {
	return &runMemo{entries: make(map[memoKey]*memoEntry), run: Run}
}

// claim returns the entry for cfg and whether the caller is its first
// requester, which must compute it. Configs with Obs set carry per-run
// observer state, so each gets a private entry.
func (m *runMemo) claim(cfg Config) (*memoEntry, bool) {
	e := &memoEntry{done: make(chan struct{})}
	if cfg.Obs != nil {
		return e, true
	}
	key := memoKey{cfg: cfg, costs: *cfg.Costs}
	key.cfg.Costs = nil
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.entries[key]; ok {
		return old, false
	}
	m.entries[key] = e
	return e, true
}

func (e *memoEntry) finish(res Result, err error) {
	e.res, e.err = res, err
	close(e.done)
}

// runConfigs runs every config through the options' memo and returns the
// results in cfgs order. Configs first requested here are submitted to
// the farm as one Map; configs another section already claimed are
// awaited afterwards, on this (coordinator) goroutine and never inside a
// farm task, so a waiter cannot pin a worker. A failed point reports its
// error, labelled by label(i), to every requester; a panic stays an
// IsPanic error; points a cancelled farm handle never started complete
// with the context's error, so no requester is left waiting.
func (o Options) runConfigs(cfgs []Config, label func(i int) string) ([]Result, error) {
	m := o.memo
	if m == nil {
		m = newRunMemo() // a standalone experiment call is its own report
	}
	entries := make([]*memoEntry, len(cfgs))
	var own []int
	for i := range cfgs {
		cfgs[i] = cfgs[i].withDefaults()
		e, first := m.claim(cfgs[i])
		entries[i] = e
		if first {
			own = append(own, i)
		}
	}
	farm := o.farm()
	// Map's joined error is the owned points' errors, which the entries
	// carry to every requester below.
	_ = farm.Map(len(own), func(j int) error {
		var res Result
		err := runPoint(func(int) (err error) {
			res, err = m.run(cfgs[own[j]])
			return err
		}, j)
		entries[own[j]].finish(res, err)
		return err
	})
	for _, i := range own {
		select {
		case <-entries[i].done:
		default: // never started: the handle was cancelled
			entries[i].finish(Result{}, farm.canceled())
		}
	}
	results := make([]Result, len(cfgs))
	var errs []error
	for i, e := range entries {
		<-e.done
		if e.err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", label(i), e.err))
			continue
		}
		results[i] = e.res
	}
	return results, errors.Join(errs...)
}
