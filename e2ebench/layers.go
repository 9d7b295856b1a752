package main

import (
	"fmt"
	"io"
	"sort"
)

// layerSpans maps each per-layer share metric to the span whose self time
// it sums. Shares are of the measured loop's busy time, the self time of
// every span: the scrape workers overlap, so wall time would undercount
// them. A layer a workload does not use reads 0 %; the layers of one
// workload add up to 100 %.
var layerSpans = []struct{ metric, span string }{
	{"sim.step_self_pct", "sim.step"},
	{"slurmsim.advance_pct", "slurmsim.advance"},
	{"exporter.render_pct", "exporter.render"},
	{"scrape.self_pct", "scrape.target"},
	{"scrape.pool_pct", "scrape.all"},
	{"tsdb.commit_pct", "tsdb.commit"},
	{"rules.self_pct", "rules.eval"},
	{"tsdb.select_pct", "tsdb.select"},
	{"tsdb.append_pct", "tsdb.append"},
	{"api.update_self_pct", "api.update"},
	{"api.select_pct", "api.select"},
	{"emissions.factor_pct", "emissions.factor"},
	{"thanos.ship_pct", "thanos.ship"},
	{"lb.self_pct", "lb.request"},
	{"lb.authz_pct", "lb.authz"},
	{"lb.transport_pct", "lb.backend"},
	{"promql.self_pct", "promapi.query"},
	{"thanos.select_pct", "thanos.select"},
	{"api.list_pct", "api.list"},
}

type metricName struct{ name, unit string }

// perLayer lists the per-layer metrics of a traced run, in output order.
var perLayer = func() []metricName {
	out := []metricName{
		{"op.wall_p50_ms", "ms"},
		{"op.wall_p90_ms", "ms"},
		{"op.ops_per_s", "1/s"},
		{"setup.wall_s", "s"},
	}
	for _, l := range layerSpans {
		out = append(out, metricName{l.metric, "%"})
	}
	return append(out, []metricName{
		{"exporter.body_bytes", "B"},
		{"scrape.samples", "count"},
		{"ingest.samples_per_s", "samples/s"},
		{"ingest.alloc_bytes_per_sample", "B/sample"},
		{"tsdb.wal_bytes_per_sample", "B/sample"},
		{"tsdb.selects", "count"},
		{"tsdb.series_per_select", "count"},
		{"tsdb.samples_per_select", "count"},
		{"tsdb.head_series", "count"},
		{"rules.samples_out", "count"},
		{"api.units_per_pass", "count"},
		{"api.selects_per_pass", "count"},
		{"api.series_deleted", "count"},
		{"emissions.factor_calls", "count"},
		{"thanos.block_bytes_per_sample", "B/sample"},
		{"thanos.compact_pct", "%"},
		{"thanos.downsample_pct", "%"},
		{"thanos.samples_per_select", "count"},
		{"query.raw_to_downsampled", "ratio"},
		{"querycache.lb_hit_ratio", "ratio"},
		{"querycache.promapi_hit_ratio", "ratio"},
		{"querycache.splices", "count"},
		{"querycache.evictions", "count"},
		{"trace.spans", "count"},
		{"trace.overhead_pct", "%"},
		{"trace.span_cost_pct", "%"},
	}...)
}()

// spanMetrics computes the span-derived per-layer metrics and writes the
// per-call view (calls, median duration and self time per span name) to w.
func spanMetrics(spans []Span, w io.Writer) map[string]float64 {
	kids := map[int32][]Span{}
	byName := map[string][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
		byName[s.Name] = append(byName[s.Name], s)
	}
	self := func(s Span) float64 { return float64(s.End - s.Start - covered(s, kids[s.ID])) }
	var busy float64
	for _, s := range spans {
		busy += self(s)
	}
	out := map[string]float64{}
	for _, l := range layerSpans {
		sum := 0.0
		for _, s := range byName[l.span] {
			sum += self(s)
		}
		if busy > 0 {
			out[l.metric] = 100 * sum / busy
		}
	}

	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-18s %9s %14s %14s\n", "span", "calls", "median_us", "median_self_us")
	for _, n := range names {
		var dur, slf []float64
		for _, s := range byName[n] {
			dur = append(dur, float64(s.End-s.Start)/1e3)
			slf = append(slf, self(s)/1e3)
		}
		fmt.Fprintf(w, "  %-18s %9d %14.1f %14.1f\n", n, len(byName[n]), quantile(dur, 0.5), quantile(slf, 0.5))
	}

	// med is the median of f over the spans of one name.
	med := func(name string, f func(Span) float64) float64 {
		var xs []float64
		for _, s := range byName[name] {
			xs = append(xs, f(s))
		}
		return quantile(xs, 0.5)
	}
	// perParent is the median, over the spans of one name, of how many
	// children of another name each has.
	perParent := func(parent, child string) float64 {
		var xs []float64
		for _, p := range byName[parent] {
			n := 0.0
			for _, k := range kids[p.ID] {
				if k.Name == child {
					n++
				}
			}
			xs = append(xs, n)
		}
		return quantile(xs, 0.5)
	}
	n := func(s Span) float64 { return float64(s.N) }
	m := func(s Span) float64 { return float64(s.M) }
	out["exporter.body_bytes"] = med("exporter.render", n)
	out["scrape.samples"] = med("scrape.all", n)
	out["tsdb.selects"] = perParent("rules.eval", "tsdb.select")
	out["tsdb.series_per_select"] = med("tsdb.select", n)
	out["tsdb.samples_per_select"] = med("tsdb.select", m)
	out["rules.samples_out"] = med("rules.eval", n)
	out["api.units_per_pass"] = med("api.update", n)
	out["api.selects_per_pass"] = perParent("api.update", "api.select")
	out["emissions.factor_calls"] = perParent("api.update", "emissions.factor")
	out["thanos.samples_per_select"] = med("thanos.select", m)
	return out
}
