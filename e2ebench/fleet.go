package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/relstore"
	"repro/internal/slurmsim"
)

// fleetTopology is 1/10 of Jean-Zay (140 nodes, all four node classes,
// 352 GPUs), the scale at which the paper's 20k jobs/day keep ~400 jobs
// running.
func fleetTopology(seed int64) cluster.Topology {
	t := cluster.JeanZay(0.1)
	t.Seed = seed
	return t
}

// roundSteps is one updater period: every round ends on an aggregation
// pass, so each round holds the same mix of plain, rule and update steps.
const roundSteps = 20

// fleetRoundSeconds is the wall time of one fleet-ingest round on the
// reference box. The platform's state grows with simulated time, so the
// run does a fixed number of rounds per second of --seconds instead of
// stopping on the clock: every run then ends at the same simulated time
// and measures the same state, however fast the program is.
const fleetRoundSeconds = 7

// roundsFor converts the requested run time to a round count.
func roundsFor(d time.Duration, roundSeconds float64) int {
	return max(1, int(math.Ceil(d.Seconds()/roundSeconds)))
}

// runFleet runs fleet-ingest: a durable 1/10 Jean-Zay platform stepped in
// closed loop, in rounds of one updater period plus one boundary probe.
// The accounting checks run after the last round.
func runFleet(rc runConfig, tr *Tracer) (*runResult, error) {
	ctx := context.Background()
	cfg := fleetConfig{
		topo: fleetTopology(rc.seed), users: 40, projects: 12, jobsPerDay: 20000,
		prefill: 30 * time.Minute, readbackEvery: 97,
		// The set-up step lands a quarter hour into the 30-minute ship
		// cycle, on an updater pass, so the rounds that follow each end on
		// a pass and the three rounds of a 20 s run end on one ship.
		tickOffset: 3*roundSteps - 1,
	}
	var p *platform
	setup, err := repeatSetup(rc, func(dir string) (func(), error) {
		cfg.dir = dir
		var err error
		p, err = newPlatform(cfg, tr)
		if err != nil {
			return nil, err
		}
		// The first step brings the stack up: its scrape creates every
		// head series and its pass registers the queued jobs.
		p.step(ctx)
		return p.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer setup.cleanup()
	probe, err := newProbe()
	if err != nil {
		return nil, err
	}

	res := newRunResult("fleet-ingest")
	setup.report(res)
	tr.Reset()
	samples0 := p.samples.Load()
	ops := &opRecorder{}
	for r := roundsFor(rc.duration, fleetRoundSeconds); r > 0; r-- {
		ops.beginRound()
		for i := 0; i < roundSteps; i++ {
			op := ops.begin()
			p.step(ctx)
			ops.end(op)
		}
		ops.endRound()
		res.attempted += roundSteps

		lowerOK, upperOK, err := probe.round()
		if err != nil {
			probe.close()
			return nil, err
		}
		// Only CPU time below the bound is the boundary-loss fault; CPU
		// time above the truth fails the run.
		name := "boundary_probe"
		if !upperOK {
			name = "boundary_probe_above_truth"
		}
		res.attempted++
		res.check(name, lowerOK && upperOK, true)
		if !lowerOK || !upperOK {
			res.failed++
		}
		// The probe's garbage is collected here, outside the timed steps.
		runtime.GC()
	}
	probe.close()
	probe = nil
	p.checkErrors(res)
	samples := float64(p.samples.Load() - samples0)
	ops.report(res)
	var stepNs float64
	for _, w := range ops.wallMs {
		stepNs += w * 1e6
	}
	res.e2e["heap_live_mb"] = heapLiveMB()
	walBytes := dirBytes(setup.dir + "/wal")
	blockBytes := dirBytes(setup.dir + "/thanos")
	stored := float64(p.samples.Load())
	res.e2e["disk_bytes_per_sample"] = float64(dirBytes(setup.dir)) / stored
	res.direct["ingest.samples_per_s"] = samples / (stepNs / 1e9)
	res.direct["ingest.alloc_bytes_per_sample"] = float64(ops.alloc) / samples
	res.direct["tsdb.wal_bytes_per_sample"] = float64(walBytes) / stored
	res.direct["thanos.block_bytes_per_sample"] = float64(blockBytes) / stored
	res.direct["tsdb.head_series"] = float64(p.db.Stats().NumSeries)
	res.direct["api.series_deleted"] = float64(p.updater.SeriesDeleted)
	res.note("fleet: %d nodes, %d steps (%s simulated), %d samples, %d jobs finished, %d blocks; update pass p50 %.0f ms",
		len(p.nodes), len(ops.wallMs), time.Duration(len(ops.wallMs))*p.opts.ScrapeInterval, int64(samples),
		p.sched.Stats().Finished, len(p.cold.BlockMetas()), quantile(p.updateMs, 0.5))

	checkAccounting(p, res)
	return res, nil
}

// checkAccounting compares the API server's rows with the simulator's
// ground truth and with properties the aggregation must have.
func checkAccounting(p *platform, res *runResult) {
	interval := p.opts.ScrapeInterval.Seconds()
	lastPass := p.clock
	rows, err := p.store.Select(api.TableUnits, relstore.Query{})
	if err != nil {
		res.check("unit_rows", false, true)
		return
	}
	byUUID := map[string]relstore.Row{}
	for _, r := range rows {
		byUUID[r["uuid"].(string)] = r
	}

	// Every started job has a row. Per finished job: CPU time against the
	// truth, emissions against the factor the updater saw. Rows that hold
	// non-finite energy (see checkErrors) are left out of the energy bound.
	energyOnNode := map[string]float64{}
	for _, j := range p.sched.JobsSince(time.Time{}) {
		uuid := model.UnitUUID(p.sched.Cluster, model.ManagerSLURM, fmt.Sprint(j.ID))
		row, found := byUUID[uuid]
		if j.StartTime.IsZero() {
			continue
		}
		res.check("unit_row_present", found, true)
		if !found {
			continue
		}
		energy := f64(row, "total_energy_j")
		finite := !math.IsInf(energy, 0) && !math.IsNaN(energy)
		res.check("unit_energy_finite", finite, false)
		for _, n := range j.NodeNames {
			if finite {
				energyOnNode[n] += energy / float64(len(j.NodeNames))
			}
		}
		if !j.State.Terminated() || j.EndTime.After(lastPass) {
			continue
		}
		cpu, cpus := f64(row, "cpu_time_sec"), j.Spec.CPUsPerNode*max(j.Spec.Nodes, 1)
		res.check("cpu_time_above_truth", cpuTimeNotAboveTruth(cpu, j.Truth.CPUSeconds), true)
		// The lower side fails on a seed-dependent share of jobs through
		// the boundary loss, which the probe counts.
		res.check("cpu_time_below_bound", cpuTimeNotBelowBound(cpu, j.Truth.CPUSeconds, cpus, interval), false)
		res.check("emissions", emissionsConsistent(f64(row, "emissions_g"), energy, p.factor.last), true)
	}

	// Users and projects are the sums of their units. When a pass failed
	// to persist a non-finite row, Updater.rollup stopped at that user and
	// left the rest of the rollups as an earlier pass wrote them (or
	// unwritten): such stale rows are recorded apart; anything else counts.
	nonfinite := p.errs[nonfiniteErrors] > 0
	for _, t := range []struct{ table, col string }{{api.TableUsers, "user"}, {api.TableProjects, "project"}} {
		type acc struct {
			n                   int64
			cpu, energy, emitsG float64
		}
		want := map[string]*acc{}
		for _, r := range rows {
			k := r["cluster"].(string) + "/" + r[t.col].(string)
			a := want[k]
			if a == nil {
				a = &acc{}
				want[k] = a
			}
			a.n++
			a.cpu += f64(r, "cpu_time_sec")
			a.energy += f64(r, "total_energy_j")
			a.emitsG += f64(r, "emissions_g")
		}
		got, err := p.store.Select(t.table, relstore.Query{})
		if err != nil {
			res.check("rollup_"+t.col, false, true)
			continue
		}
		byKey := map[string]relstore.Row{}
		for _, r := range got {
			k := r["key"].(string)
			byKey[k] = r
			res.check("rollup_"+t.col+"_has_units", want[k] != nil, true)
		}
		for k, a := range want {
			r := byKey[k]
			if r != nil && r["num_units"].(int64) == a.n && closeTo(f64(r, "cpu_time_sec"), a.cpu) &&
				closeTo(f64(r, "total_energy_j"), a.energy) && closeTo(f64(r, "emissions_g"), a.emitsG) {
				res.check("rollup_"+t.col, true, true)
				continue
			}
			// A stale row is an earlier sum: never more units, CPU time or
			// energy than the units hold now.
			stale := r == nil || (r["num_units"].(int64) <= a.n && f64(r, "cpu_time_sec") <= a.cpu*(1+1e-9) &&
				f64(r, "total_energy_j") <= a.energy*(1+1e-9))
			if nonfinite && stale {
				res.check("rollup_"+t.col+"_stale", false, false)
				continue
			}
			res.check("rollup_"+t.col, false, true)
		}
	}

	// Attributed energy never exceeds what the fleet drew. Per node, the
	// sampled Eq. 1 shares can exceed the node's draw by a fraction of a
	// percent on a seed-dependent set of nodes; that is recorded apart.
	var attributed, drawn, worst float64
	for _, n := range p.nodes {
		name := n.Spec.Name
		attributed += energyOnNode[name]
		drawn += p.energyAtUpd[name]
		res.check("energy_bound_node", energyOnNode[name] <= p.energyAtUpd[name]*(1+1e-9), false)
		worst = math.Max(worst, energyOnNode[name]/p.energyAtUpd[name])
	}
	res.check("energy_bound", attributed <= drawn, true)
	res.note("energy: attributed %.4g J of %.4g J drawn; worst node attributes %.4f of its draw", attributed, drawn, worst)

	checkReadback(p, res)
}

// checkReadback reads a fixed subset of scraped expositions back through
// the fan-in querier and compares every sample with what the exporter
// rendered. Series of units the updater cleaned up (terminated with less
// than the short-unit cutoff of runtime) are gone by design and skipped.
func checkReadback(p *platform, res *runResult) {
	short := map[string]bool{}
	for _, j := range p.sched.JobsSince(time.Time{}) {
		if j.State.Terminated() && j.EndTime.Sub(j.StartTime) < p.opts.ShortUnitCutoff {
			short[fmt.Sprint(j.ID)] = true
		}
	}
	groupLabels := map[string]map[string]string{}
	for _, g := range p.scrape.Groups {
		for _, t := range g.Targets {
			groupLabels[t] = g.Labels
		}
	}
	for _, rb := range p.readback.got {
		exp, err := parseExposition(rb.body)
		got, qerr := p.querier.Select(rb.ts, rb.ts,
			labels.MustMatcher(labels.MatchEqual, "instance", rb.target),
			labels.MustMatcher(labels.MatchEqual, "job", "ceems"))
		if err != nil || qerr != nil {
			res.check("readback", false, true)
			continue
		}
		stored := map[string]float64{}
		for _, s := range got {
			if len(s.Samples) == 1 {
				stored[s.Labels.String()] = s.Samples[0].V
			}
		}
		ok := true
		for _, s := range exp {
			if short[s.labels["uuid"]] {
				continue
			}
			// Target labels win over exposed ones, as the scrape applies them.
			m := map[string]string{}
			for k, v := range s.labels {
				if v != "" {
					m[k] = v
				}
			}
			m["job"], m["instance"] = "ceems", rb.target
			for k, v := range groupLabels[rb.target] {
				m[k] = v
			}
			v, found := stored[labels.FromMap(m).String()]
			if !found || v != s.value {
				ok = false
				break
			}
		}
		res.check("readback", ok, true)
	}
}

// probe is a fixed single-node platform, independent of the seed, that
// runs one 16-minute job at 90% of 8 CPUs per round across three updater
// passes and checks its recorded CPU time against the ground truth.
type probe struct {
	p *platform
}

func newProbe() (*probe, error) {
	topo := cluster.Topology{Name: "probe", IntelNodes: 1, Seed: 1}
	p, err := newPlatform(fleetConfig{topo: topo}, nil)
	if err != nil {
		return nil, err
	}
	return &probe{p: p}, nil
}

// probeRoundSteps is four updater periods: the job starts one step into
// the round and ends 64 steps later, so passes at steps 20, 40 and 60 fall
// inside it and the pass at step 80 accounts it.
const probeRoundSteps = 80

// round runs one probe job and reports whether its recorded CPU time is
// above the lower side of the bound and not above the truth.
func (pr *probe) round() (lowerOK, upperOK bool, err error) {
	ctx := context.Background()
	job, err := pr.p.sched.Submit(slurmsim.JobSpec{
		Name: "probe", User: "probe", Account: "probe", Partition: "part-intel",
		CPUsPerNode: 8, MemPerNode: 8 << 30, Duration: 16 * time.Minute,
		CPUUtil: func(time.Duration) float64 { return 0.9 },
	})
	if err != nil {
		return false, false, err
	}
	for i := 0; i < probeRoundSteps; i++ {
		pr.p.step(ctx)
	}
	if len(pr.p.errs) > 0 || !job.State.Terminated() {
		return false, false, fmt.Errorf("probe platform: job state %s, errors %v", job.State, pr.p.errs)
	}
	row, ok, err := pr.p.store.Get(api.TableUnits, model.UnitUUID("probe", model.ManagerSLURM, fmt.Sprint(job.ID)))
	if err != nil || !ok {
		return false, false, fmt.Errorf("probe job row missing: %v", err)
	}
	cpu := f64(row, "cpu_time_sec")
	return cpuTimeNotBelowBound(cpu, job.Truth.CPUSeconds, 8, pr.p.opts.ScrapeInterval.Seconds()),
		cpuTimeNotAboveTruth(cpu, job.Truth.CPUSeconds), nil
}

func (pr *probe) close() { pr.p.close() }

func f64(r relstore.Row, k string) float64 {
	switch v := r[k].(type) {
	case float64:
		return v
	case int64:
		return float64(v)
	}
	return 0
}

// heapLiveMB reads the live heap after two forced collections: objects
// parked in sync.Pools survive the first one in the pools' victim caches.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// setupResult holds the platform directory kept for the run.
type setupResult struct {
	dir                     string
	cpuSeconds, wallSeconds float64
	userSeconds, sysSeconds float64
	n                       int
	release                 func()
}

// report records the set-up times of a run.
func (s *setupResult) report(res *runResult) {
	res.e2e["setup_s"] = s.cpuSeconds
	res.direct["setup.wall_s"] = s.wallSeconds
	res.note("setup: %d set-ups, median CPU %.4f s (user %.4f s, system %.4f s), wall %.4f s",
		s.n, s.cpuSeconds, s.userSeconds, s.sysSeconds, s.wallSeconds)
}

func (s *setupResult) cleanup() {
	if s.release != nil {
		s.release()
	}
	os.RemoveAll(s.dir)
}
