package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"repro/internal/promql"
)

// get issues one in-process GET against h as the given Grafana user ("" for
// none) and returns the status and body.
func get(h http.Handler, path, user string) (int, []byte) {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if user != "" {
		req.Header.Set("X-Grafana-User", user)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// parseQueryResult decodes a Prometheus query API response (vector or
// matrix) into series keyed by their canonical label set.
func parseQueryResult(body []byte) (map[string][]sample, error) {
	var resp struct {
		Status string `json:"status"`
		Data   struct {
			ResultType string `json:"resultType"`
			Result     []struct {
				Metric map[string]string `json:"metric"`
				Value  []any             `json:"value"`
				Values [][]any           `json:"values"`
			} `json:"result"`
		} `json:"data"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	if resp.Status != "success" {
		return nil, fmt.Errorf("status %q", resp.Status)
	}
	out := map[string][]sample{}
	for _, r := range resp.Data.Result {
		pts := r.Values
		if resp.Data.ResultType == "vector" {
			pts = [][]any{r.Value}
		}
		key := labelKey(r.Metric, false)
		for _, p := range pts {
			if len(p) != 2 {
				return nil, fmt.Errorf("bad point %v", p)
			}
			ts, ok1 := p[0].(float64)
			vs, ok2 := p[1].(string)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("bad point %v", p)
			}
			v, err := strconv.ParseFloat(vs, 64)
			if err != nil {
				return nil, err
			}
			out[key] = append(out[key], sample{int64(ts*1000 + 0.5), v})
		}
	}
	return out, nil
}

// fromValue converts a direct engine result to the same shape.
func fromValue(v promql.Value) map[string][]sample {
	out := map[string][]sample{}
	switch tv := v.(type) {
	case promql.Vector:
		for _, s := range tv {
			k := labelKey(s.Labels.Map(), false)
			out[k] = append(out[k], sample{s.T, s.V})
		}
	case promql.Matrix:
		for _, s := range tv {
			k := labelKey(s.Labels.Map(), false)
			for _, p := range s.Samples {
				out[k] = append(out[k], sample{p.T, p.V})
			}
		}
	}
	return out
}

// sameResult compares two results series by series, point by point.
func sameResult(got, want map[string][]sample) bool {
	if len(got) != len(want) {
		return false
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok || len(g) != len(w) {
			return false
		}
		for i := range w {
			if g[i].T != w[i].T || !closeTo(g[i].V, w[i].V) {
				return false
			}
		}
	}
	return true
}

// opRecorder times a workload's operations in wall and process CPU time
// and counts the bytes allocated in the rounds that hold them.
type opRecorder struct {
	wallMs, cpuMs []float64
	alloc, a0     uint64
}

type opStart struct {
	t time.Time
	c int64
}

// heapAllocNow reads the cumulative allocated bytes.
func heapAllocNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func (o *opRecorder) beginRound() { o.a0 = heapAllocNow() }
func (o *opRecorder) endRound()   { o.alloc += heapAllocNow() - o.a0 }

func (o *opRecorder) begin() opStart { return opStart{time.Now(), cpuNow()} }

// end records the operation and returns its wall time in ms.
func (o *opRecorder) end(s opStart) float64 {
	wall := float64(time.Since(s.t)) / 1e6
	o.wallMs = append(o.wallMs, wall)
	o.cpuMs = append(o.cpuMs, float64(cpuNow()-s.c)/1e6)
	return wall
}

// report fills the operation metrics of a run.
func (o *opRecorder) report(res *runResult) {
	var cpu, wall float64
	for i := range o.cpuMs {
		cpu += o.cpuMs[i]
		wall += o.wallMs[i]
	}
	n := float64(len(o.cpuMs))
	res.cpuNs = cpu * 1e6
	res.direct["op.wall_p50_ms"] = quantile(o.wallMs, 0.5)
	res.direct["op.wall_p90_ms"] = quantile(o.wallMs, 0.9)
	res.direct["op.ops_per_s"] = n / (wall / 1e3)
	res.e2e["op_cpu_p50_ms"] = quantile(o.cpuMs, 0.5)
	res.e2e["op_cpu_p90_ms"] = quantile(o.cpuMs, 0.9)
	res.e2e["ops_per_cpu_s"] = n / (cpu / 1e3)
	res.e2e["alloc_kb_per_op"] = float64(o.alloc) / 1024 / n
}
