package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/emissions"
	"repro/internal/exporter"
	"repro/internal/gpusim"
	"repro/internal/hw"
	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/relstore"
	"repro/internal/resourcemanager"
	"repro/internal/rules"
	"repro/internal/rules/ceemsrules"
	"repro/internal/scrape"
	"repro/internal/slurmsim"
	"repro/internal/thanos"
	"repro/internal/tsdb"
)

// fleetConfig sizes one simulated platform. The cadences always come from
// cluster.DefaultOptions, so the benchmark runs what cluster.New runs.
type fleetConfig struct {
	topo       cluster.Topology
	users      int
	projects   int
	jobsPerDay float64
	// prefill submits this much simulated time of arrivals at the start,
	// so the fleet begins busy instead of empty.
	prefill time.Duration
	// dir holds the WAL, block store and API store; "" keeps all in memory.
	dir string
	// readbackEvery captures one rendered exposition per this many
	// scrapes for the read-back check; 0 captures none.
	readbackEvery int
	// tickOffset starts the cadence counter this many steps into the
	// cycle (a multiple of the updater period), as if the platform had
	// been up that long with nothing to ingest.
	tickOffset int64
}

// platform is the CEEMS stack over a simulated fleet, assembled from the
// exported constructors the same way cluster.New assembles it in
// single-node mode, with a timing wrapper at every layer boundary.
type platform struct {
	opts cluster.Options
	tr   *Tracer

	sched     *slurmsim.Scheduler
	gen       *cluster.WorkloadGen
	nodes     []*hw.Node
	exporters map[string]*exporter.Exporter
	db        *tsdb.DB
	cold      *thanos.Store
	sidecar   *thanos.Sidecar
	querier   *thanos.Querier
	store     *relstore.DB
	updater   *api.Updater
	server    *api.Server
	scrape    *scrape.Manager
	rules     *rules.Manager
	factor    *tracedFactor

	clock time.Time
	tick  int64

	// Context spans that the wrappers hang their spans under. Everything
	// but the scrape workers runs on the driving goroutine.
	stepSpan, scrapeSpan, rulesSpan, updateSpan int32
	targetMu                                    sync.Mutex
	targetSpans                                 map[string]int32

	// samples counts every sample the platform appended (scrapes, rule
	// outputs, the emission-factor series).
	samples atomic.Int64

	// Ground truth kept by the benchmark: per node, the energy integrated
	// from the BMC reading (plus GPU board power where the BMC excludes
	// GPUs), and the value of that integral at the last updater pass.
	energyJ     map[string]float64
	energyAtUpd map[string]float64

	readback *readbackLog
	// updateMs times every aggregation pass, traced or not.
	updateMs []float64
	// errs counts subsystem errors by subsystem; firstErr keeps the first
	// message of each.
	errs     map[string]int
	firstErr map[string]string
}

// newPlatform builds a platform at cluster.DefaultOptions' start time.
func newPlatform(cfg fleetConfig, tr *Tracer) (*platform, error) {
	opts := cluster.DefaultOptions()
	p := &platform{
		opts: opts, tr: tr, clock: opts.Start, tick: cfg.tickOffset,
		exporters:   map[string]*exporter.Exporter{},
		targetSpans: map[string]int32{},
		energyJ:     map[string]float64{},
		energyAtUpd: map[string]float64{},
		readback:    &readbackLog{every: cfg.readbackEvery},
		errs:        map[string]int{},
		firstErr:    map[string]string{},
	}
	topo := cfg.topo
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	counts := map[cluster.NodeClass]int{
		cluster.ClassIntel: topo.IntelNodes, cluster.ClassAMD: topo.AMDNodes,
		cluster.ClassGPUIncluded: topo.GPUIncludedNodes, cluster.ClassGPUExcluded: topo.GPUExcludedNodes,
	}
	gpusPerNode := topo.GPUsPerNode
	if gpusPerNode <= 0 {
		gpusPerNode = 4
	}
	var parts []*slurmsim.Partition
	var cpuParts, gpuParts []string
	nodesByClass := map[cluster.NodeClass][]*hw.Node{}
	for _, class := range cluster.Classes() {
		for i := 0; i < counts[class]; i++ {
			name := fmt.Sprintf("%s-%s-%04d", topo.Name, class, i)
			var spec hw.NodeSpec
			switch class {
			case cluster.ClassIntel:
				spec = hw.DefaultIntelSpec(name)
			case cluster.ClassAMD:
				spec = hw.DefaultAMDSpec(name)
			default:
				kinds := make([]model.GPUKind, gpusPerNode)
				for k := range kinds {
					kinds[k] = topo.GPUKinds[i%len(topo.GPUKinds)]
				}
				spec = hw.DefaultGPUSpec(name, class == cluster.ClassGPUIncluded, kinds...)
			}
			spec.Seed = topo.Seed + int64(i)*7919
			n, err := hw.NewNode(spec, opts.Start)
			if err != nil {
				return nil, err
			}
			nodesByClass[class] = append(nodesByClass[class], n)
			p.nodes = append(p.nodes, n)
		}
		if len(nodesByClass[class]) == 0 {
			continue
		}
		pname := "part-" + string(class)
		parts = append(parts, &slurmsim.Partition{Name: pname, Nodes: nodesByClass[class]})
		if class == cluster.ClassIntel || class == cluster.ClassAMD {
			cpuParts = append(cpuParts, pname)
		} else {
			gpuParts = append(gpuParts, pname)
		}
	}
	var err error
	p.sched, err = slurmsim.NewScheduler(topo.Name, opts.Start, parts...)
	if err != nil {
		return nil, err
	}

	tsdbOpts := tsdb.DefaultOptions()
	tsdbOpts.WALCompression = opts.WALCompression
	coldDir, apiDir := "", ""
	if cfg.dir != "" {
		tsdbOpts.WALDir = filepath.Join(cfg.dir, "wal")
		coldDir = filepath.Join(cfg.dir, "thanos")
		apiDir = filepath.Join(cfg.dir, "apidb")
	}
	if p.db, err = tsdb.Open(tsdbOpts); err != nil {
		return nil, fmt.Errorf("open tsdb: %w", err)
	}

	var groups []*scrape.TargetGroup
	for _, class := range cluster.Classes() {
		nodes := nodesByClass[class]
		if len(nodes) == 0 {
			continue
		}
		var targets []string
		for _, n := range nodes {
			cols := []exporter.Collector{
				&exporter.CgroupCollector{FS: n.FS, Layout: exporter.SlurmLayout()},
				&exporter.RAPLCollector{FS: n.FS},
				&exporter.IPMICollector{Reader: n},
				&exporter.NodeCollector{FS: n.FS},
			}
			if len(n.Spec.GPUs) > 0 {
				cols = append(cols,
					&gpusim.DCGMCollector{Hostname: n.Spec.Name, Devices: n},
					&exporter.GPUMapCollector{
						Provider: &gpuMapProvider{sched: p.sched, node: n},
						Manager:  model.ManagerSLURM,
					})
			}
			p.exporters[n.Spec.Name] = exporter.New(cols...)
			targets = append(targets, n.Spec.Name)
		}
		groups = append(groups, &scrape.TargetGroup{
			JobName: "ceems", Targets: targets,
			Labels:   map[string]string{"nodeclass": string(class), "cluster": topo.Name},
			Interval: opts.ScrapeInterval,
		})
	}
	p.scrape = &scrape.Manager{
		Dest: p.db, Fetcher: &tracedFetcher{p: p}, Groups: groups,
		NewBatch: func() scrape.Batch { return &tracedBatch{inner: p.db.Appender(), p: p} },
		Now:      func() time.Time { return p.clock },
	}

	ropts := ceemsrules.DefaultOptions()
	ropts.Interval = opts.RuleInterval
	p.rules = &rules.Manager{
		Engine: rules.NewEngine(nil),
		Query:  &tracedQuery{name: "tsdb.select", q: p.db, tr: tr, parent: &p.rulesSpan},
		Dest:   &tracedAppender{inner: p.db, p: p},
		Groups: ceemsrules.AllGroups(ropts),
	}

	if p.cold, err = thanos.NewStore(coldDir); err != nil {
		return nil, err
	}
	p.sidecar = &thanos.Sidecar{DB: p.db, Store: p.cold, HeadRetention: opts.HeadRetention}
	p.querier = &thanos.Querier{Hot: p.db, Cold: p.cold}

	if p.store, err = relstore.Open(apiDir); err != nil {
		return nil, err
	}
	for _, s := range api.Schemas() {
		if err := p.store.CreateTable(s); err != nil {
			return nil, err
		}
	}
	// The factor is read by the step (for the factor series) and by the
	// updater's passes.
	p.factor = &tracedFactor{inner: emissions.OWID{}, tr: tr, parent: func() int32 {
		if p.updateSpan != 0 {
			return p.updateSpan
		}
		return p.stepSpan
	}}
	p.updater = &api.Updater{
		Store: p.store,
		Fetchers: []resourcemanager.Fetcher{
			&resourcemanager.Local{Cluster: topo.Name, Kind: model.ManagerSLURM, Source: p.sched},
		},
		Query:           &tracedQuery{name: "api.select", q: p.querier, tr: tr, parent: &p.updateSpan},
		Factor:          p.factor,
		Zone:            opts.Zone,
		ShortUnitCutoff: opts.ShortUnitCutoff,
		Cleaner:         p.db,
	}
	p.server = &api.Server{Store: p.store, Updater: p.updater}

	if cfg.jobsPerDay > 0 {
		p.gen = cluster.NewWorkloadGen(topo.Seed, cfg.users, cfg.projects, cfg.jobsPerDay, cpuParts, gpuParts)
		if cfg.prefill > 0 {
			p.gen.Tick(p.sched, cfg.prefill)
		}
	}
	return p, nil
}

// gpuMapProvider feeds the exporter's GPU-map collector from the
// scheduler's binding table, as cluster.New does.
type gpuMapProvider struct {
	sched *slurmsim.Scheduler
	node  *hw.Node
}

func (g *gpuMapProvider) GPUOrdinalsByUnit() map[string][]exporter.GPUBinding {
	gpus := g.node.GPUs()
	out := map[string][]exporter.GPUBinding{}
	for id, ords := range g.sched.GPUBindingsOnNode(g.node.Spec.Name) {
		for _, ord := range ords {
			uuid := ""
			if ord < len(gpus) {
				uuid = gpus[ord].UUID
			}
			out[id] = append(out[id], exporter.GPUBinding{Ordinal: ord, UUID: uuid})
		}
	}
	return out
}

// step advances one scrape interval exactly as cluster.Sim.Step does:
// arrivals, scheduler and hardware, scrape, the emission-factor series,
// then rules, the API-server pass and the sidecar ship on their cadences.
func (p *platform) step(ctx context.Context) {
	tr := p.tr
	p.tick++
	dt := p.opts.ScrapeInterval
	p.clock = p.clock.Add(dt)
	p.stepSpan = tr.Start("sim.step", 0)

	if p.gen != nil {
		p.gen.Tick(p.sched, dt)
	}
	sp := tr.Start("slurmsim.advance", p.stepSpan)
	p.sched.Advance(dt)
	tr.End(sp, 0, 0)
	for _, n := range p.nodes {
		w, _ := n.PowerReading()
		if !n.Spec.IPMIIncludesGPU {
			for _, g := range n.GPUs() {
				w += g.PowerWatts()
			}
		}
		p.energyJ[n.Spec.Name] += w * dt.Seconds()
	}

	before := p.samples.Load()
	p.scrapeSpan = tr.Start("scrape.all", p.stepSpan)
	p.scrape.ScrapeAll(ctx)
	tr.End(p.scrapeSpan, p.samples.Load()-before, 0)

	f, err := p.factor.Factor(ctx, p.opts.Zone)
	if err == nil {
		ls := labels.FromStrings(labels.MetricName, "ceems_emission_factor_gco2_kwh", "zone", p.opts.Zone)
		if err := p.db.Append(ls, p.clock.UnixMilli(), f.GramsPerKWh); err == nil {
			p.samples.Add(1)
		}
	}

	if p.every(p.opts.RuleInterval) {
		before := p.samples.Load()
		p.rulesSpan = tr.Start("rules.eval", p.stepSpan)
		if err := p.rules.EvalAll(p.clock); err != nil {
			p.recordError("rules", err)
		}
		tr.End(p.rulesSpan, p.samples.Load()-before, 0)
		p.rulesSpan = 0
	}
	if p.every(p.opts.UpdateInterval) {
		if err := p.update(ctx); err != nil {
			p.recordError("updater", err)
		}
	}
	if p.every(p.opts.ShipInterval) {
		sp := tr.Start("thanos.ship", p.stepSpan)
		if err := p.sidecar.Ship(p.clock); err != nil {
			p.recordError("sidecar", err)
		}
		tr.End(sp, 0, 0)
	}
	tr.End(p.stepSpan, 0, 0)
	p.stepSpan = 0
}

// update runs one API-server aggregation pass and snapshots the energy
// integral the accounting check compares against.
func (p *platform) update(ctx context.Context) error {
	units := p.updater.UnitsSeen
	deleted := p.updater.SeriesDeleted
	p.updateSpan = p.tr.Start("api.update", p.stepSpan)
	t0 := time.Now()
	err := p.updater.Update(ctx, p.clock)
	p.updateMs = append(p.updateMs, float64(time.Since(t0))/1e6)
	p.tr.End(p.updateSpan, p.updater.UnitsSeen-units, p.updater.SeriesDeleted-deleted)
	p.updateSpan = 0
	for k, v := range p.energyJ {
		p.energyAtUpd[k] = v
	}
	return err
}

func (p *platform) every(interval time.Duration) bool {
	ticks := int64(interval / p.opts.ScrapeInterval)
	return ticks > 0 && p.tick%ticks == 0
}

// nonfiniteErrors counts the updater errors of one known cause: a unit's
// aggregate holds +Inf energy (see checkErrors), which the durable API
// store cannot encode.
const nonfiniteErrors = "updater_nonfinite"

func (p *platform) recordError(sub string, err error) {
	var uv *json.UnsupportedValueError
	if sub == "updater" && errors.As(err, &uv) {
		sub = nonfiniteErrors
	}
	if p.errs[sub] == 0 {
		p.firstErr[sub] = err.Error()
	}
	p.errs[sub]++
}

// checkErrors records the subsystem errors of a run. Every error fails
// the run's correctness but one known cause, recorded apart: on some seeds
// a unit's energy is +Inf (instance:net_watts_per_unit divides by zero
// units on the scrape after a node's last unit ends), and the durable API
// store refuses to encode that row.
func (p *platform) checkErrors(res *runResult) {
	res.check("rules_sidecar_errors", p.errs["rules"]+p.errs["sidecar"] == 0, true)
	res.check("updater_errors", p.errs["updater"] == 0, true)
	res.check("updater_nonfinite_errors", p.errs[nonfiniteErrors] == 0, false)
	for sub, n := range p.errs {
		res.note("%d %s errors, first: %s", n, sub, p.firstErr[sub])
	}
}

// close releases the stores; the caller removes the directory.
func (p *platform) close() {
	p.db.Close()
	p.cold.Close()
	p.store.Close()
}

// readbackLog keeps a copy of the expositions rendered for a fixed
// subset of (target, scrape) pairs, one pair in every `every` on average,
// for the read-back check.
type readbackLog struct {
	every int
	mu    sync.Mutex
	got   []renderedBody
}

type renderedBody struct {
	target string
	ts     int64
	body   string
}

func (r *readbackLog) add(target string, ts int64, body string) {
	r.mu.Lock()
	r.got = append(r.got, renderedBody{target, ts, body})
	r.mu.Unlock()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
