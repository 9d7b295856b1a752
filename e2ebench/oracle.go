package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// The oracles below are written independently of the program: they work on
// plain sample slices and strings, so a fault in the engine, the store or
// the updater cannot hide in them.

// sample is one (timestamp ms, value) point.
type sample struct {
	T int64
	V float64
}

// window returns the samples in the left-open window (t-rng, t], the
// window PromQL range functions read.
func window(ss []sample, t, rng int64) []sample {
	lo := sort.Search(len(ss), func(i int) bool { return ss[i].T > t-rng })
	hi := sort.Search(len(ss), func(i int) bool { return ss[i].T > t })
	return ss[lo:hi]
}

// bruteRangeFunc evaluates a range function over (t-rng, t] by brute force.
// rate and increase follow the program's documented semantics: the
// reset-adjusted delta between the first and last sample in the window,
// without extrapolation, divided by the observed span for rate. ok is false
// when the function yields no point.
func bruteRangeFunc(fn string, ss []sample, t, rng int64) (float64, bool) {
	w := window(ss, t, rng)
	if len(w) == 0 {
		return 0, false
	}
	switch fn {
	case "sum_over_time", "avg_over_time":
		s := 0.0
		for _, x := range w {
			s += x.V
		}
		if fn == "avg_over_time" {
			s /= float64(len(w))
		}
		return s, true
	case "min_over_time", "max_over_time":
		m := w[0].V
		for _, x := range w[1:] {
			if (fn == "min_over_time" && x.V < m) || (fn == "max_over_time" && x.V > m) {
				m = x.V
			}
		}
		return m, true
	case "increase", "rate":
		if len(w) < 2 {
			return 0, false
		}
		d := 0.0
		for i := 1; i < len(w); i++ {
			if w[i].V >= w[i-1].V {
				d += w[i].V - w[i-1].V
			} else {
				d += w[i].V // counter reset
			}
		}
		if fn == "rate" {
			return d / (float64(w[len(w)-1].T-w[0].T) / 1000), true
		}
		return d, true
	}
	panic("oracle: unknown function " + fn)
}

// closeTo reports whether two floats agree to a relative 1e-9 (absolute
// 1e-9 near zero): exact up to summation order.
func closeTo(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// cpuTimeWithinBound is the job-accounting bound: the recorded CPU time
// may miss at most two scrape intervals of the full allocation (the first
// and the last interval of the job, which no scrape can see) and never
// exceed the truth.
func cpuTimeWithinBound(recorded, truth float64, cpus int, intervalSec float64) bool {
	return cpuTimeNotAboveTruth(recorded, truth) && cpuTimeNotBelowBound(recorded, truth, cpus, intervalSec)
}

// cpuTimeNotAboveTruth is the upper side of the bound: no way of sampling
// a counter can record more CPU time than the job used.
func cpuTimeNotAboveTruth(recorded, truth float64) bool {
	return recorded <= truth*(1+1e-9)+1e-6
}

// cpuTimeNotBelowBound is the lower side: at most two scrape intervals of
// the allocation missing. The updater's boundary loss breaks this side.
func cpuTimeNotBelowBound(recorded, truth float64, cpus int, intervalSec float64) bool {
	return recorded >= truth-2*intervalSec*float64(cpus)-1e-6
}

// emissionsConsistent checks emissions_g = total_energy_j × factor, the
// factor in g/kWh.
func emissionsConsistent(emissionsG, energyJ, gPerKWh float64) bool {
	return closeTo(emissionsG, energyJ/3.6e6*gPerKWh)
}

// expSample is one line of a text exposition.
type expSample struct {
	labels map[string]string
	value  float64
}

// parseExposition reads the samples of a Prometheus text exposition:
// `name{k="v",...} value [timestamp]` lines; comments are skipped.
func parseExposition(body string) ([]expSample, error) {
	var out []expSample
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		ls := map[string]string{}
		rest := line
		if i := strings.IndexAny(line, "{ "); i >= 0 && line[i] == '{' {
			ls["__name__"] = line[:i]
			j := i + 1
			for j < len(line) && line[j] != '}' {
				eq := strings.IndexByte(line[j:], '=')
				if eq < 0 || j+eq+1 >= len(line) || line[j+eq+1] != '"' {
					return nil, fmt.Errorf("bad labels in %q", line)
				}
				name := strings.TrimSpace(line[j : j+eq])
				k := j + eq + 2
				var val strings.Builder
				for ; k < len(line) && line[k] != '"'; k++ {
					if line[k] == '\\' && k+1 < len(line) {
						k++
						switch line[k] {
						case 'n':
							val.WriteByte('\n')
						default:
							val.WriteByte(line[k])
						}
						continue
					}
					val.WriteByte(line[k])
				}
				if k >= len(line) {
					return nil, fmt.Errorf("unterminated label value in %q", line)
				}
				ls[name] = val.String()
				j = k + 1
				if j < len(line) && line[j] == ',' {
					j++
				}
			}
			if j >= len(line) {
				return nil, fmt.Errorf("unterminated labels in %q", line)
			}
			rest = strings.TrimSpace(line[j+1:])
		} else {
			f := strings.Fields(line)
			if len(f) < 2 {
				return nil, fmt.Errorf("bad sample line %q", line)
			}
			ls["__name__"] = f[0]
			rest = strings.Join(f[1:], " ")
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			return nil, fmt.Errorf("missing value in %q", line)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, fmt.Errorf("bad value in %q: %w", line, err)
		}
		out = append(out, expSample{labels: ls, value: v})
	}
	return out, nil
}
