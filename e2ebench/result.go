package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed     int64
	duration time.Duration
	workdir  string
}

// A run sets its workload up at least minSetups times and repeats until
// setupBudget of set-up time is spent (at most maxSetups), reporting the
// median and keeping the last: a set-up of a few milliseconds is repeated
// often enough for its median to be steady.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = time.Second
)

// checkCount tallies one correctness check.
type checkCount struct {
	attempted, failed int64
	// counted checks decide `correct`; a check that is not counted fails
	// because of a known fault on a seed-dependent share of its inputs
	// and is reported for the record only.
	counted bool
}

// runResult is one run of one workload.
type runResult struct {
	workload          string
	attempted, failed int64
	checks            map[string]*checkCount
	checkOrder        []string
	// e2e holds the end-to-end metrics; direct holds per-layer figures
	// measured without spans (counts, bytes, call timings taken by the
	// driving loop itself).
	e2e, direct map[string]float64
	notes       []string
	// cpuNs is the process CPU time of the measured loop.
	cpuNs float64
}

func newRunResult(workload string) *runResult {
	return &runResult{
		workload: workload, checks: map[string]*checkCount{},
		e2e: map[string]float64{}, direct: map[string]float64{},
	}
}

func (r *runResult) check(name string, ok, counted bool) {
	c := r.checks[name]
	if c == nil {
		c = &checkCount{counted: counted}
		r.checks[name] = c
		r.checkOrder = append(r.checkOrder, name)
	}
	c.attempted++
	if !ok {
		c.failed++
	}
}

func (r *runResult) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// correct reports whether every counted check passed, apart from the
// operations the run itself counts as failed (the known faults).
func (r *runResult) correct(expectedFailures map[string]bool) bool {
	for name, c := range r.checks {
		if c.counted && c.failed > 0 && !expectedFailures[name] {
			return false
		}
	}
	return true
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// repeatSetup runs a workload's set-up as often as minSetups, maxSetups
// and setupBudget say, each time in a fresh directory, keeping the last and
// reporting the median set-up time in process CPU and in wall time. Each
// set-up starts after a forced collection, so none pays for the garbage of
// the one before. The build function returns the release hook of what it
// built.
func repeatSetup(rc runConfig, build func(dir string) (func(), error)) (*setupResult, error) {
	var cpu, user, sys, wall []float64
	var kept *setupResult
	start := time.Now()
	for i := 0; i < minSetups || (i < maxSetups && time.Since(start) < setupBudget); i++ {
		if kept != nil {
			kept.cleanup()
		}
		dir, err := os.MkdirTemp(rc.workdir, "run-")
		if err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		u0, s0 := cpuSplit()
		release, err := build(filepath.Clean(dir))
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		u1, s1 := cpuSplit()
		cpu = append(cpu, float64(u1-u0+s1-s0)/1e9)
		user = append(user, float64(u1-u0)/1e9)
		sys = append(sys, float64(s1-s0)/1e9)
		wall = append(wall, time.Since(t0).Seconds())
		kept = &setupResult{dir: dir, release: release}
	}
	kept.cpuSeconds, kept.wallSeconds = quantile(cpu, 0.5), quantile(wall, 0.5)
	kept.userSeconds, kept.sysSeconds = quantile(user, 0.5), quantile(sys, 0.5)
	kept.n = len(cpu)
	return kept, nil
}
