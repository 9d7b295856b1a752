// Command e2ebench is the end-to-end benchmark of the CEEMS stack: it
// assembles the platform from the repository's own constructors, drives
// one of three workloads in closed loop for a fixed time, checks the
// outputs against ground truth or brute force, and prints its metrics.
//
//	go run . --workload fleet-ingest --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs the workload untraced and then traced from a fresh set-up, and
// prints the per-layer metrics (span self times and counts from the traced
// run, plus the counts and byte figures of the untraced run) together with
// the tracing overhead between the two. The last line of standard output
// is one JSON object; the run record goes to standard error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload to its runner and the checks whose
// failures are the known faults it keeps as failed operations.
var workloads = map[string]struct {
	run      func(runConfig, *Tracer) (*runResult, error)
	expected map[string]bool
}{
	"fleet-ingest":   {runFleet, map[string]bool{"boundary_probe": true}},
	"dashboard-live": {runDashboard, map[string]bool{"label_values_match": true}},
	"history-rollup": {runHistory, map[string]bool{"rollup_downsampled": true}},
}

// endToEnd lists the metrics of an untraced run, with their units.
var endToEnd = []metricName{
	{"setup_s", "s"},
	{"op_cpu_p50_ms", "ms"},
	{"op_cpu_p90_ms", "ms"},
	{"ops_per_cpu_s", "1/s"},
	{"alloc_kb_per_op", "KiB"},
	{"heap_live_mb", "MiB"},
	{"disk_bytes_per_sample", "B/sample"},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "fleet-ingest, dashboard-live or history-rollup")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Int("seconds", 20, "measured time of one run")
	trace := flag.Int("trace", 0, "1 adds a traced run and prints per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for the stores and the span file")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	rc := runConfig{seed: *seed, duration: time.Duration(*seconds) * time.Second, workdir: *workdir}
	fmt.Fprintf(os.Stderr, "run: workload=%s seed=%d seconds=%d trace=%d cpu=%q gomaxprocs=%d go=%s\n",
		*workload, *seed, *seconds, *trace, cpuModel(), runtime.GOMAXPROCS(0), runtime.Version())

	plain, err := w.run(rc, nil)
	if err != nil {
		return err
	}
	printRecord(plain)
	runs := []*runResult{plain}
	metrics := map[string]metricOut{}
	if *trace == 0 {
		for _, m := range endToEnd {
			metrics[m.name] = metricOut{plain.e2e[m.name], m.unit}
		}
	} else {
		runtime.GC()
		tr := NewTracer()
		traced, err := w.run(rc, tr)
		if err != nil {
			return err
		}
		printRecord(traced)
		runs = append(runs, traced)
		spans := tr.Spans()
		path := filepath.Join(*workdir, fmt.Sprintf("spans-%s-%d.tsv", *workload, *seed))
		if err := tr.WriteTSV(path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", len(spans), path)
		layer := spanMetrics(spans, os.Stderr)
		for k, v := range plain.direct {
			layer[k] = v
		}
		layer["trace.spans"] = float64(len(spans))
		layer["trace.span_cost_pct"] = 100 * float64(len(spans)) * spanCostNs() / (traced.cpuNs)
		layer["trace.overhead_pct"] = 100 * (traced.e2e["op_cpu_p50_ms"]/plain.e2e["op_cpu_p50_ms"] - 1)
		fmt.Fprintf(os.Stderr, "trace: op_cpu_p50_ms untraced %.4f traced %.4f overhead %.2f%%\n",
			plain.e2e["op_cpu_p50_ms"], traced.e2e["op_cpu_p50_ms"], layer["trace.overhead_pct"])
		for _, m := range perLayer {
			metrics[m.name] = metricOut{layer[m.name], m.unit}
		}
	}

	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{Correct: true, Metrics: metrics}
	for _, r := range runs {
		out.Attempted += r.attempted
		out.Failed += r.failed
		out.Correct = out.Correct && r.correct(w.expected)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printRecord writes a run's operation and check counts to stderr.
func printRecord(r *runResult) {
	fmt.Fprintf(os.Stderr, "%s: operations attempted=%d failed=%d\n", r.workload, r.attempted, r.failed)
	for _, n := range r.notes {
		fmt.Fprintf(os.Stderr, "  %s\n", n)
	}
	for _, name := range r.checkOrder {
		c := r.checks[name]
		kind := "counted"
		if !c.counted {
			kind = "recorded only"
		}
		fmt.Fprintf(os.Stderr, "  check %-20s attempted=%-6d failed=%-6d (%s)\n", name, c.attempted, c.failed, kind)
	}
	keys := make([]string, 0, len(r.e2e))
	for k := range r.e2e {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %s=%.6g\n", k, r.e2e[k])
	}
}

// cpuModel reads the processor name for the run record.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
