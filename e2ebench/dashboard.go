package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/labels"
	"repro/internal/lb"
	"repro/internal/model"
	"repro/internal/promapi"
	"repro/internal/promql"
	"repro/internal/querycache"
	"repro/internal/relstore"
)

// dashboardTopology is 1/50 of Jean-Zay (26 nodes, all four classes),
// loaded at the same jobs per node as fleet-ingest.
func dashboardTopology(seed int64) cluster.Topology {
	t := cluster.JeanZay(0.02)
	t.Seed = seed
	return t
}

// dashboard is the query side of the platform: the LB with its response
// cache in front of a promapi backend (with its own result cache) over the
// fan-in querier, plus the API server.
type dashboard struct {
	p      *platform
	lb     *lb.LB
	api    http.Handler
	engine *promql.Engine
	promC  *querycache.Cache
	lbSpan int32
	rng    *rand.Rand
}

func newDashboard(p *platform, tr *Tracer, seed int64) *dashboard {
	d := &dashboard{p: p, api: p.server.Handler(), engine: promql.NewEngine(), rng: rand.New(rand.NewSource(seed))}
	var promSpan int32
	querier := &tracedQuery{name: "thanos.select", q: p.querier, tr: tr, parent: &promSpan}
	now := func() time.Time { return p.clock }
	d.promC = querycache.New(querycache.Options{
		MaxBytes: 16 << 20, Head: p.db, Lookback: d.engine.LookbackDelta, MaxSteps: d.engine.MaxSteps, Name: "promapi",
	})
	backend := (&promapi.Handler{Engine: d.engine, Query: querier, Now: now, Cache: d.promC}).Mux()
	be, _ := lb.NewBackend("http://promapi.local")
	d.lb = &lb.LB{
		Backends:  []*lb.Backend{be},
		Strategy:  lb.RoundRobin,
		Checker:   &tracedChecker{inner: &lb.APIServerChecker{Server: p.server}, tr: tr, parent: &d.lbSpan},
		Transport: &handlerTransport{h: backend, tr: tr, parent: &d.lbSpan, promapi: &promSpan},
		Cache:     querycache.New(querycache.Options{MaxBytes: 16 << 20, Clock: now, Name: "lb"}),
		CacheTTL:  p.opts.ScrapeInterval,
		CacheNow:  now,
	}
	return d
}

// dashReq is one request of a dashboard refresh and how to check it.
type dashReq struct {
	kind string // "lb", "foreign", "api"
	path string
	user string
	// direct evaluates the expected answer of an LB request.
	direct func() (map[string][]sample, bool)
	// list reports whether an API-server answer is right, and whether
	// that counts: see finiteRows.
	list func(body []byte) (ok, counted bool)
	// names is set for label endpoints.
	names func() []string
	// unscoped is the answer of a label-values request that ignores its
	// match[] selector, the known fault of handleLabelValues.
	unscoped func() []string
}

// refresh draws one Grafana refresh of the paper's Fig. 2 dashboard for a
// user who owns running jobs known to the API server: variable lookups,
// per-job panels over the last hour through the LB, a stat panel, one
// finished job's history, the user's job list and rollups from the API
// server, and two requests for another user's jobs, which must be refused.
// It always holds 15 requests; nil when no unit is known yet.
func (d *dashboard) refresh() []dashReq {
	rows, _ := d.p.store.Select(api.TableUnits, relstore.Query{})
	var running, finished []relstore.Row
	for _, r := range rows {
		switch {
		case r["state"] == string(model.UnitRunning):
			running = append(running, r)
		case model.UnitState(r["state"].(string)).Terminated() && r["elapsed_sec"].(int64) >= 600:
			finished = append(finished, r)
		}
	}
	if len(running) == 0 || len(finished) == 0 {
		return nil
	}
	user := running[d.rng.Intn(len(running))]["user"].(string)
	var mine, others, mineDone []string
	for _, r := range running {
		if r["user"] == user {
			mine = append(mine, r["id"].(string))
		} else {
			others = append(others, r["id"].(string))
		}
	}
	for _, r := range finished {
		if r["user"] == user {
			mineDone = append(mineDone, r["id"].(string))
		}
	}
	if len(others) == 0 {
		return nil
	}
	d.rng.Shuffle(len(mine), func(i, j int) { mine[i], mine[j] = mine[j], mine[i] })
	jobs := []string{mine[0], mine[1%len(mine)]}

	now := d.p.clock.UnixMilli()
	end := now / 60_000 * 60_000
	start := end - 3600_000
	q := d.p.querier
	rangeReq := func(query string, s, e int64, user string) dashReq {
		return dashReq{kind: "lb", user: user, path: rangePath(query, s, e, 60_000),
			direct: func() (map[string][]sample, bool) {
				m, err := d.engine.Range(q, query, time.UnixMilli(s), time.UnixMilli(e), time.Minute)
				return fromValue(m), err == nil
			}}
	}
	var reqs []dashReq
	reqs = append(reqs, dashReq{kind: "lb", user: user, path: "/api/v1/labels", names: q.LabelNames})
	const cpuMetric = "ceems_compute_unit_cpu_usage_seconds_total"
	match := fmt.Sprintf(`%s{uuid=~%q}`, cpuMetric, strings.Join(jobs, "|"))
	reqs = append(reqs, dashReq{kind: "lb", user: user,
		path: "/api/v1/label/uuid/values?match[]=" + url.QueryEscape(match),
		// The uuids of the series match[] selects, over all time.
		names: func() []string {
			ss, _ := q.Select(0, now, labels.MustMatcher(labels.MatchEqual, labels.MetricName, cpuMetric))
			seen := map[string]bool{}
			var out []string
			for _, s := range ss {
				u := s.Labels.Get("uuid")
				if !seen[u] && (u == jobs[0] || u == jobs[1]) {
					seen[u] = true
					out = append(out, u)
				}
			}
			return out
		},
		unscoped: func() []string { return q.LabelValues("uuid") }})
	for _, j := range jobs {
		reqs = append(reqs,
			rangeReq(fmt.Sprintf(`rate(ceems_compute_unit_cpu_usage_seconds_total{uuid=%q}[2m])`, j), start, end, user),
			rangeReq(fmt.Sprintf(`{__name__=~"uuid:total_watts:.+",uuid=%q}`, j), start, end, user),
			rangeReq(fmt.Sprintf(`ceems_compute_unit_memory_used_bytes{uuid=%q}`, j), start, end, user))
	}
	stat := fmt.Sprintf(`sum({__name__=~"uuid:host_watts:.+",uuid=~%q})`, strings.Join(jobs, "|"))
	reqs = append(reqs, dashReq{kind: "lb", user: user,
		path: fmt.Sprintf("/api/v1/query?query=%s&time=%s", url.QueryEscape(stat), promTime(now)),
		direct: func() (map[string][]sample, bool) {
			v, err := d.engine.Instant(q, stat, time.UnixMilli(now))
			return fromValue(v), err == nil
		}})
	// The whole lifetime of one of the user's three most recent finished
	// jobs, or, when the user has none yet, of a recent finished job
	// viewed by its own owner.
	done := finished[len(finished)-1-d.rng.Intn(min(3, len(finished)))]
	if len(mineDone) > 0 {
		id := mineDone[len(mineDone)-1-d.rng.Intn(min(3, len(mineDone)))]
		for _, r := range finished {
			if r["id"] == id {
				done = r
			}
		}
	}
	ds := done["started_at"].(int64) / 60_000 * 60_000
	de := (done["ended_at"].(int64) + 59_999) / 60_000 * 60_000
	reqs = append(reqs, rangeReq(fmt.Sprintf(`{__name__=~"uuid:total_watts:.+",uuid=%q}`, done["id"]), ds, de, done["user"].(string)))

	reqs = append(reqs,
		dashReq{kind: "api", user: user, path: "/api/v1/units?state=running", list: d.checkUnits(user)},
		dashReq{kind: "api", user: user, path: "/api/v1/users", list: d.checkUsers(user)},
		dashReq{kind: "api", user: user, path: "/api/v1/projects", list: d.checkProjects(user)})
	for i := 0; i < 2; i++ {
		f := others[d.rng.Intn(len(others))]
		reqs = append(reqs, dashReq{kind: "foreign", user: user,
			path: rangePath(fmt.Sprintf(`{__name__=~"uuid:total_watts:.+",uuid=%q}`, f), start, end, 60_000)})
	}
	return reqs
}

// finiteRows reports whether every float of the rows is finite. On some
// seeds a unit's aggregate holds +Inf energy, which the API server cannot
// encode; answers built from such rows fail on a seed-dependent share and
// are recorded apart instead of counted.
func finiteRows(rows []relstore.Row) bool {
	for _, r := range rows {
		for _, v := range r {
			if f, ok := v.(float64); ok && (math.IsInf(f, 0) || math.IsNaN(f)) {
				return false
			}
		}
	}
	return true
}

// checkUnits expects exactly the user's running units.
func (d *dashboard) checkUnits(user string) func([]byte) (bool, bool) {
	want, err := d.p.store.Select(api.TableUnits, relstore.Query{Where: []relstore.Cond{
		{Col: "user", Op: relstore.OpEq, Val: user}, {Col: "state", Op: relstore.OpEq, Val: string(model.UnitRunning)},
	}})
	return func(body []byte) (bool, bool) {
		var got []model.Unit
		if err != nil || json.Unmarshal(body, &got) != nil || len(got) != len(want) {
			return false, finiteRows(want)
		}
		ids := map[string]bool{}
		for _, r := range want {
			ids[r["uuid"].(string)] = true
		}
		for _, u := range got {
			if !ids[u.UUID] || u.User != user {
				return false, finiteRows(want)
			}
		}
		return true, finiteRows(want)
	}
}

// checkUsers expects the user's own rollup row only.
func (d *dashboard) checkUsers(user string) func([]byte) (bool, bool) {
	row, found, err := d.p.store.Get(api.TableUsers, d.p.sched.Cluster+"/"+user)
	return func(body []byte) (bool, bool) {
		var got []map[string]any
		if err != nil || !found || json.Unmarshal(body, &got) != nil || len(got) != 1 {
			return false, finiteRows([]relstore.Row{row})
		}
		e, _ := got[0]["total_energy_j"].(float64)
		return got[0]["user"] == user && closeTo(e, f64(row, "total_energy_j")), finiteRows([]relstore.Row{row})
	}
}

// checkProjects expects the rollups of the projects the user has units in.
func (d *dashboard) checkProjects(user string) func([]byte) (bool, bool) {
	mine, err := d.p.store.Select(api.TableUnits, relstore.Query{Where: []relstore.Cond{{Col: "user", Op: relstore.OpEq, Val: user}}})
	want := map[string]bool{}
	var rows []relstore.Row
	for _, r := range mine {
		p := r["project"].(string)
		if !want[p] {
			want[p] = true
			row, _, _ := d.p.store.Get(api.TableProjects, d.p.sched.Cluster+"/"+p)
			rows = append(rows, row)
		}
	}
	return func(body []byte) (bool, bool) {
		var got []map[string]any
		if err != nil || json.Unmarshal(body, &got) != nil || len(got) != len(want) {
			return false, finiteRows(rows)
		}
		for _, r := range got {
			if p, _ := r["project"].(string); !want[p] {
				return false, finiteRows(rows)
			}
		}
		return true, finiteRows(rows)
	}
}

// dashboardRoundSeconds is the wall time of one step plus one refresh on
// the reference box; like fleet-ingest, the run does a fixed number of
// rounds per second of --seconds so that it ends at a fixed simulated time.
const dashboardRoundSeconds = 0.05

// runDashboard runs dashboard-live: a small durable fleet stepped on the
// platform cadences, with one dashboard refresh between steps.
func runDashboard(rc runConfig, tr *Tracer) (*runResult, error) {
	ctx := context.Background()
	cfg := fleetConfig{
		topo: dashboardTopology(rc.seed), users: 10, projects: 4, jobsPerDay: 20000 * 26 / 140,
		prefill: 30 * time.Minute,
	}
	var p *platform
	setup, err := repeatSetup(rc, func(dir string) (func(), error) {
		cfg.dir = dir
		var err error
		if p, err = newPlatform(cfg, tr); err != nil {
			return nil, err
		}
		// Run to the third aggregation pass, so the API server knows
		// running and finished units and the dashboard has owners to
		// act for.
		for i := 0; i < roundSteps*3; i++ {
			p.step(ctx)
		}
		return p.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer setup.cleanup()
	d := newDashboard(p, tr, rc.seed)
	res := newRunResult("dashboard-live")
	setup.report(res)
	tr.Reset()
	ops := &opRecorder{}
	var stepMs, apiUs []float64
	var stepNs float64
	var stepAlloc uint64
	samples0 := p.samples.Load()
	for r := roundsFor(rc.duration, dashboardRoundSeconds); r > 0; r-- {
		a0, t0 := heapAllocNow(), time.Now()
		p.step(ctx)
		stepMs = append(stepMs, float64(time.Since(t0))/1e6)
		stepNs += float64(time.Since(t0))
		stepAlloc += heapAllocNow() - a0
		// The step's garbage is collected here, so that the refresh pays
		// only for the collections its own requests cause.
		runtime.GC()
		reqs := d.refresh()
		if reqs == nil {
			return nil, fmt.Errorf("no running and finished units known at %s", p.clock)
		}
		type answer struct {
			status int
			body   []byte
		}
		answers := make([]answer, len(reqs))
		ops.beginRound()
		for i, r := range reqs {
			op := ops.begin()
			var status int
			var body []byte
			if r.kind == "api" {
				sp := tr.Start("api.list", 0)
				status, body = get(d.api, r.path, r.user)
				tr.End(sp, 0, 0)
			} else {
				d.lbSpan = tr.Start("lb.request", 0)
				status, body = get(d.lb, r.path, r.user)
				tr.End(d.lbSpan, 0, 0)
			}
			wall := ops.end(op)
			if r.kind == "api" {
				apiUs = append(apiUs, wall*1e3)
			}
			answers[i] = answer{status, body}
		}
		ops.endRound()
		for i, r := range reqs {
			a := answers[i]
			var ok bool
			name := "lb_answer"
			switch {
			case r.kind == "foreign":
				name, ok = "foreign_refused", a.status == http.StatusForbidden
			case r.kind == "api":
				var counted bool
				ok, counted = r.list(a.body)
				ok = ok && a.status == http.StatusOK
				if !counted {
					// Recorded apart; the operation does not count as failed.
					res.attempted++
					res.check("api_list_nonfinite", ok, false)
					continue
				}
				name = "api_list"
			case r.unscoped != nil:
				// The values of every series instead of the matched ones
				// are the known fault; any other wrong answer fails.
				name = "label_values_match"
				ok = a.status == http.StatusOK && sameNames(a.body, r.names())
				if !ok && !(a.status == http.StatusOK && sameNames(a.body, r.unscoped())) {
					name = "lb_answer"
				}
			case r.names != nil:
				ok = a.status == http.StatusOK && sameNames(a.body, r.names())
			default:
				got, err := parseQueryResult(a.body)
				want, wok := r.direct()
				ok = a.status == http.StatusOK && err == nil && wok && sameResult(got, want)
			}
			res.attempted++
			res.check(name, ok, true)
			if !ok {
				res.failed++
			}
		}
	}
	p.checkErrors(res)
	ops.report(res)
	samples := float64(p.samples.Load() - samples0)
	res.e2e["heap_live_mb"] = heapLiveMB()
	res.e2e["disk_bytes_per_sample"] = float64(dirBytes(setup.dir)) / float64(p.samples.Load())
	res.direct["ingest.samples_per_s"] = samples / (stepNs / 1e9)
	res.direct["ingest.alloc_bytes_per_sample"] = float64(stepAlloc) / samples
	res.direct["tsdb.wal_bytes_per_sample"] = float64(dirBytes(setup.dir+"/wal")) / float64(p.samples.Load())
	res.direct["thanos.block_bytes_per_sample"] = float64(dirBytes(setup.dir+"/thanos")) / float64(p.samples.Load())
	res.direct["tsdb.head_series"] = float64(p.db.Stats().NumSeries)
	lbs, ps := d.lb.Cache.Stats(), d.promC.Stats()
	ratio := func(s querycache.Stats) float64 {
		if n := s.Hits + s.Misses + s.Splices; n > 0 {
			return float64(s.Hits) / float64(n)
		}
		return 0
	}
	res.direct["querycache.lb_hit_ratio"] = ratio(lbs)
	res.direct["querycache.promapi_hit_ratio"] = ratio(ps)
	res.direct["querycache.splices"] = float64(ps.Splices)
	res.direct["querycache.evictions"] = float64(lbs.Evictions + ps.Evictions)
	res.note("dashboard: %d nodes, %d refreshes, %d requests; step p50 %.1f ms, API list p50 %.0f us, update pass p50 %.0f ms",
		len(p.nodes), len(stepMs), len(ops.wallMs), quantile(stepMs, 0.5), quantile(apiUs, 0.5), quantile(p.updateMs, 0.5))
	res.note("lb cache %+v", lbs)
	res.note("promapi cache %+v", ps)
	return res, nil
}

// sameNames compares a label-list response with the expected names.
func sameNames(body []byte, want []string) bool {
	var resp struct {
		Status string   `json:"status"`
		Data   []string `json:"data"`
	}
	if json.Unmarshal(body, &resp) != nil || resp.Status != "success" {
		return false
	}
	got := append([]string(nil), resp.Data...)
	sort.Strings(got)
	w := append([]string(nil), want...)
	sort.Strings(w)
	if len(got) != len(w) {
		return false
	}
	for i := range w {
		if got[i] != w[i] {
			return false
		}
	}
	return true
}
