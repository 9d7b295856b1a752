package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promapi"
	"repro/internal/promql"
	"repro/internal/thanos"
	"repro/internal/tsdb"
)

// History store shape: three weeks of 1-minute recorded series, cut into
// 6-hour blocks, compacted, and downsampled to 5m and 1h.
const (
	histDays    = 21
	histNodes   = 8
	histUnits   = 32
	histStep    = int64(60_000)
	histBlock   = 6 * time.Hour
	histCounter = "ceems_rapl_package_joules_total"
	histPower   = "uuid:total_watts:intel"
	histFactor  = "ceems_emission_factor_gco2_kwh"
)

var histStart = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// genSeries is one generated input series.
type genSeries struct {
	labels  map[string]string
	samples []sample
	// from and to bound a unit's lifetime (ms); whole span otherwise.
	from, to int64
}

// historyData is everything the benchmark generated for the store.
type historyData struct {
	counters []*genSeries // 2 sockets per node, node i at 2i and 2i+1
	units    []*genSeries
	factor   *genSeries
	samples  int64
}

// genHistory builds the inputs from the seed: per-socket package energy
// counters driven by a random-walk utilization with a daily cycle,
// per-unit attributed power over 3 to 6 day lifetimes, and a grid emission
// factor with a daily cycle plus noise.
func genHistory(seed int64) *historyData {
	rng := rand.New(rand.NewSource(seed))
	t0 := histStart.UnixMilli()
	n := int64(histDays * 24 * 60)
	d := &historyData{}
	for i := 0; i < histNodes; i++ {
		node := fmt.Sprintf("jean-zay-intel-%04d", i)
		util := rng.Float64()
		for s := 0; s < 2; s++ {
			g := &genSeries{labels: map[string]string{
				"__name__": histCounter, "cluster": "jean-zay", "instance": node,
				"index": fmt.Sprint(s), "nodeclass": "intel",
			}, from: t0, to: t0 + (n-1)*histStep}
			energy := rng.Float64() * 1e6
			g.samples = make([]sample, n)
			for k := int64(0); k < n; k++ {
				util = math.Min(1, math.Max(0, util+0.02*rng.NormFloat64()))
				day := math.Sin(2 * math.Pi * float64(k) / 1440)
				watts := 45 + 160*math.Min(1, math.Max(0, util+0.1*day))
				energy += watts * 60
				g.samples[k] = sample{t0 + k*histStep, energy}
			}
			d.counters = append(d.counters, g)
		}
	}
	for u := 0; u < histUnits; u++ {
		life := int64((3 + 3*rng.Float64()) * 24 * 60)
		first := rng.Int63n(n - life)
		base := 100 + 300*rng.Float64()
		g := &genSeries{labels: map[string]string{
			"__name__": histPower, "cluster": "jean-zay",
			"instance": fmt.Sprintf("jean-zay-intel-%04d", rng.Intn(histNodes)),
			"uuid":     fmt.Sprint(100000 + u),
		}, from: t0 + first*histStep, to: t0 + (first+life-1)*histStep}
		for k := first; k < first+life; k++ {
			g.samples = append(g.samples, sample{t0 + k*histStep, base * (1 + 0.05*rng.NormFloat64())})
		}
		d.units = append(d.units, g)
	}
	d.factor = &genSeries{labels: map[string]string{"__name__": histFactor, "zone": "FR"}, from: t0, to: t0 + (n-1)*histStep}
	for k := int64(0); k < n; k++ {
		v := 55 + 25*math.Sin(2*math.Pi*float64(k)/1440) + 3*rng.NormFloat64()
		d.factor.samples = append(d.factor.samples, sample{t0 + k*histStep, v})
	}
	for _, g := range d.all() {
		d.samples += int64(len(g.samples))
	}
	return d
}

func (d *historyData) all() []*genSeries {
	out := append(append([]*genSeries(nil), d.counters...), d.units...)
	return append(out, d.factor)
}

// buildHistoryStore appends the inputs to a head, cuts 6-hour blocks into
// the store, compacts to a fixpoint and downsamples to 5m and 1h. It records
// the shares of its wall time that compaction and downsampling took.
func buildHistoryStore(d *historyData, dir string, res *runResult) (*thanos.Store, error) {
	start := time.Now()
	head, err := tsdb.Open(tsdb.DefaultOptions())
	if err != nil {
		return nil, err
	}
	defer head.Close()
	for _, g := range d.all() {
		ss := make([]model.Sample, len(g.samples))
		for i, s := range g.samples {
			ss[i] = model.Sample{T: s.T, V: s.V}
		}
		if err := head.AppendSeries(labels.FromMap(g.labels), ss); err != nil {
			return nil, err
		}
	}
	store, err := thanos.NewStore(dir)
	if err != nil {
		return nil, err
	}
	t0 := histStart.UnixMilli()
	end := t0 + histDays*24*3600*1000
	for lo := t0; lo < end; lo += histBlock.Milliseconds() {
		blk, err := head.CutBlock(lo, lo+histBlock.Milliseconds()-1)
		if err == nil {
			err = store.Upload(blk)
		}
		if err != nil {
			store.Close()
			return nil, err
		}
	}
	t := time.Now()
	if _, err := store.Compact(nil); err != nil {
		store.Close()
		return nil, err
	}
	compact := time.Since(t)
	t = time.Now()
	for _, r := range []time.Duration{5 * time.Minute, time.Hour} {
		if _, err := store.Downsample(end, r); err != nil {
			store.Close()
			return nil, err
		}
	}
	downsample := time.Since(t)
	total := float64(time.Since(start))
	res.direct["thanos.compact_pct"] = 100 * float64(compact) / total
	res.direct["thanos.downsample_pct"] = 100 * float64(downsample) / total
	return store, nil
}

// histQuery is one rollup request and its brute-force answer.
type histQuery struct {
	downsampled bool
	path        string
	want        map[string][]sample
	// faulty is the answer the bucket-edge fault gives, by brute force:
	// the downsampled tier reads each window as [t-range, t), and the raw
	// samples that fill the edges of the selected span make the first
	// point (t-range, t) and the last [t-range, t]. avg_over_time averages
	// those raw edge samples and bucket means unweighted (the store's
	// documented mean of means), so its first and last points are only
	// bounded by the window's extremes. Only a downsampled answer whose
	// every point equals want or lies in faulty is that fault.
	faulty map[string][]faultPoint
}

// faultPoint is the range of values the known fault can give at T.
type faultPoint struct {
	T      int64
	lo, hi float64
}

// histQueries draws one round of the mix: the four *_over_time functions
// at steps that select the 5m/1h aggregates, the same four at a step that
// reads raw samples, and four counter rollups that read raw by
// construction (increase, rate, and daily energy and emissions per node).
func histQueries(d *historyData, rng *rand.Rand) []histQuery {
	const (
		minute = int64(60_000)
		hour   = 60 * minute
		day    = 24 * hour
	)
	t0 := histStart.UnixMilli()
	spanEnd := t0 + histDays*day
	// aligned draws a start aligned to step, leaving room for the range
	// and the query length inside [lo, hi].
	aligned := func(lo, hi, rng0, length, step int64) int64 {
		first := (lo + rng0 + step - 1) / step * step
		last := (hi - length) / step * step
		if last <= first {
			return first
		}
		return first + rng.Int63n((last-first)/step+1)*step
	}
	node := func() []*genSeries { i := rng.Intn(histNodes); return d.counters[2*i : 2*i+2] }
	unit := func() *genSeries { return d.units[rng.Intn(len(d.units))] }
	var out []histQuery
	rangeQ := func(downsampled bool, fn string, ss []*genSeries, sel string, rngMs, length, step int64) {
		lo, hi := t0, spanEnd
		if len(ss) == 1 {
			lo, hi = ss[0].from, ss[0].to
		}
		start := aligned(lo, hi, rngMs, length, step)
		end := start + length
		q := fmt.Sprintf("%s(%s[%s])", fn, sel, promDur(rngMs))
		want, faulty := map[string][]sample{}, map[string][]faultPoint{}
		for _, g := range ss {
			key := labelKey(g.labels, true)
			for t := start; t <= end; t += step {
				if v, ok := bruteRangeFunc(fn, g.samples, t, rngMs); ok {
					want[key] = append(want[key], sample{t, v})
				}
				if downsampled {
					faulty[key] = append(faulty[key], bucketEdgeAnswer(fn, g.samples, t, start, end, rngMs))
				}
			}
		}
		out = append(out, histQuery{downsampled, rangePath(q, start, end, step), want, faulty})
	}
	nodeSel := func(ss []*genSeries) string {
		return fmt.Sprintf(`%s{instance=%q}`, histCounter, ss[0].labels["instance"])
	}
	unitSel := func(g *genSeries) string { return fmt.Sprintf(`%s{uuid=%q}`, histPower, g.labels["uuid"]) }

	// Aggregates: maxRes = min(step/5, range) selects the 1h or 5m tier.
	n := node()
	rangeQ(true, "sum_over_time", n, nodeSel(n), hour, 7*day, 6*hour)
	u := unit()
	rangeQ(true, "avg_over_time", []*genSeries{u}, unitSel(u), hour, 2*day, 6*hour)
	n = node()
	rangeQ(true, "max_over_time", n, nodeSel(n), 30*minute, 2*day, 3*hour)
	n = node()
	rangeQ(true, "min_over_time", n, nodeSel(n), hour, 3*day, 6*hour)
	// The same functions at a 5m step read raw samples.
	n = node()
	rangeQ(false, "sum_over_time", n, nodeSel(n), 10*minute, 6*hour, 5*minute)
	for _, fn := range []string{"avg_over_time", "max_over_time", "min_over_time"} {
		u := unit()
		rangeQ(false, fn, []*genSeries{u}, unitSel(u), 10*minute, 6*hour, 5*minute)
	}
	// Counter rollups decode raw.
	n = node()
	rangeQ(false, "increase", n, nodeSel(n), hour, 2*day, hour)
	n = node()
	rangeQ(false, "rate", n, nodeSel(n), 5*minute, day, 30*minute)

	// Daily energy and daily emissions per node, as instant queries over
	// every counter; the emissions join the day's mean factor.
	for _, emissions := range []bool{false, true} {
		at := aligned(t0, spanEnd, day, 0, hour)
		f := 1.0
		q := fmt.Sprintf("sum by (instance) (increase(%s[1d]))", histCounter)
		if emissions {
			f, _ = bruteRangeFunc("avg_over_time", d.factor.samples, at, day)
			f /= 3.6e6
			q += fmt.Sprintf(" / 3.6e6 * on() group_left() avg_over_time(%s[1d])", histFactor)
		}
		want := map[string][]sample{}
		for i := 0; i < histNodes; i++ {
			sum := 0.0
			for _, g := range d.counters[2*i : 2*i+2] {
				v, _ := bruteRangeFunc("increase", g.samples, at, day)
				sum += v
			}
			key := labelKey(map[string]string{"instance": d.counters[2*i].labels["instance"]}, false)
			want[key] = []sample{{at, sum * f}}
		}
		out = append(out, histQuery{false, fmt.Sprintf("/api/v1/query?query=%s&time=%s", url.QueryEscape(q), promTime(at)), want, nil})
	}
	return out
}

// runHistory runs history-rollup: a closed loop of rollup rounds through
// promapi → engine → thanos.Querier over the generated store, each answer
// compared with the brute force over the generated inputs.
func runHistory(rc runConfig, tr *Tracer) (*runResult, error) {
	res := newRunResult("history-rollup")
	data := genHistory(rc.seed)
	var store *thanos.Store
	setup, err := repeatSetup(rc, func(dir string) (func(), error) {
		var err error
		store, err = buildHistoryStore(data, dir, res)
		if err != nil {
			return nil, err
		}
		return func() { store.Close() }, nil
	})
	if err != nil {
		return nil, err
	}
	defer setup.cleanup()
	setup.report(res)
	tr.Reset()
	hot, err := tsdb.Open(tsdb.DefaultOptions())
	if err != nil {
		return nil, err
	}
	defer hot.Close()
	var promSpan int32
	querier := &tracedQuery{name: "thanos.select", q: &thanos.Querier{Hot: hot, Cold: store}, tr: tr, parent: &promSpan}
	h := (&promapi.Handler{Engine: promql.NewEngine(), Query: querier}).Mux()

	rng := rand.New(rand.NewSource(rc.seed))
	ops := &opRecorder{}
	var rawMs, downMs []float64
	var pts pointTally
	start := time.Now()
	for time.Since(start) < rc.duration {
		qs := histQueries(data, rng)
		bodies := make([][]byte, len(qs))
		ops.beginRound()
		for i, q := range qs {
			op := ops.begin()
			promSpan = tr.Start("promapi.query", 0)
			status, body := get(h, q.path, "")
			tr.End(promSpan, 0, 0)
			wall := ops.end(op)
			if status != http.StatusOK {
				return nil, fmt.Errorf("query %s: status %d: %s", q.path, status, body)
			}
			bodies[i] = body
			if q.downsampled {
				downMs = append(downMs, wall)
			} else {
				rawMs = append(rawMs, wall)
			}
		}
		ops.endRound()
		for i, q := range qs {
			got, err := parseQueryResult(bodies[i])
			ok := err == nil && sameResult(got, q.want)
			res.attempted++
			name := "rollup_raw"
			if q.downsampled {
				// Only the bucket-edge fault is the known failure; any
				// other wrong answer fails the run.
				name = "rollup_downsampled"
				explained := err == nil && pts.tally(got, q.want, q.faulty)
				if !ok && !explained {
					name = "rollup_downsampled_other"
				}
			}
			res.check(name, ok, true)
			if !ok {
				res.failed++
			}
		}
	}
	ops.report(res)
	res.e2e["heap_live_mb"] = heapLiveMB()
	res.e2e["disk_bytes_per_sample"] = float64(dirBytes(setup.dir)) / float64(data.samples)
	res.direct["thanos.block_bytes_per_sample"] = res.e2e["disk_bytes_per_sample"]
	res.direct["query.raw_to_downsampled"] = quantile(rawMs, 0.5) / quantile(downMs, 0.5)
	res.note("downsampled points: %d equal the brute force over (t-range, t], %d equal the bucket-edge fault's answer, %d neither",
		pts.exact, pts.faulty, pts.other)
	res.note("history: %d series, %d samples, %d blocks after compaction and downsampling, %d queries",
		len(data.all()), data.samples, len(store.BlockMetas()), len(rawMs)+len(downMs))
	return res, nil
}

// labelKey renders a label set canonically; dropName drops __name__, as
// range functions and aggregations do.
func labelKey(m map[string]string, dropName bool) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		if dropName && k == "__name__" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += k + "=" + m[k] + ","
	}
	return s
}

func promDur(ms int64) string {
	switch {
	case ms%(3600_000) == 0:
		return fmt.Sprintf("%dh", ms/3600_000)
	default:
		return fmt.Sprintf("%dm", ms/60_000)
	}
}

func promTime(ms int64) string { return fmt.Sprintf("%.3f", float64(ms)/1000) }

func rangePath(q string, start, end, step int64) string {
	return fmt.Sprintf("/api/v1/query_range?query=%s&start=%s&end=%s&step=%ds",
		url.QueryEscape(q), promTime(start), promTime(end), step/1000)
}

// pointTally classifies the points of downsampled answers.
type pointTally struct{ exact, faulty, other int }

// tally classifies the points of one answer and reports whether every
// point equals the brute force or lies where the fault puts it, over the
// same series and timestamps as the brute force.
func (p *pointTally) tally(got, want map[string][]sample, faulty map[string][]faultPoint) bool {
	explained := len(got) == len(want)
	for k, g := range got {
		explained = explained && len(g) == len(want[k])
		for i, s := range g {
			switch {
			case i < len(want[k]) && want[k][i].T == s.T && closeTo(want[k][i].V, s.V):
				p.exact++
			case i < len(faulty[k]) && faulty[k][i].T == s.T && faulty[k][i].holds(s.V):
				p.faulty++
			default:
				p.other++
				explained = false
			}
		}
	}
	return explained
}

// bucketEdgeAnswer is what the bucket-edge fault makes a downsampled
// range query answer at t, for a query from start to end: the window
// (at-r, at] over integer ms is [t-range, t) in the middle, (t-range, t) at
// the first step and [t-range, t] at the last. avg_over_time's first and
// last points mix raw edge samples with bucket means, so they are bounded
// by the extremes of [t-range, t] only.
func bucketEdgeAnswer(fn string, ss []sample, t, start, end, rng int64) faultPoint {
	at, r := t-1, rng
	switch t {
	case start:
		r--
	case end:
		at, r = t, rng+1
	}
	fp := faultPoint{T: t}
	if fn == "avg_over_time" && (t == start || t == end) {
		fp.lo, _ = bruteRangeFunc("min_over_time", ss, t, rng+1)
		fp.hi, _ = bruteRangeFunc("max_over_time", ss, t, rng+1)
		return fp
	}
	fp.lo, _ = bruteRangeFunc(fn, ss, at, r)
	fp.hi = fp.lo
	return fp
}

func (f faultPoint) holds(v float64) bool {
	return closeTo(v, f.lo) || closeTo(v, f.hi) || (v > f.lo && v < f.hi)
}
