package main

import "testing"

// Every oracle accepts a hand-computed answer and rejects the same answer
// perturbed the way the faults it guards against would perturb it.

// counter is 10, 20, 30, 40, 50 at t = 60s ... 300s.
var counter = []sample{{60_000, 10}, {120_000, 20}, {180_000, 30}, {240_000, 40}, {300_000, 50}}

func TestWindowIsLeftOpen(t *testing.T) {
	w := window(counter, 240_000, 120_000) // (120s, 240s]
	if len(w) != 2 || w[0].T != 180_000 || w[1].T != 240_000 {
		t.Fatalf("window = %v, want the samples at 180s and 240s", w)
	}
}

func TestBruteRangeFuncHandComputed(t *testing.T) {
	for _, c := range []struct {
		fn   string
		want float64
		// shifted is the answer over [t-range, t): the window edge moved
		// by one sample, as a downsampled bucket stamped at its start
		// would read it.
		shifted float64
	}{
		{"sum_over_time", 30 + 40 + 50, 20 + 30 + 40},
		{"avg_over_time", 40, 30},
		{"min_over_time", 30, 20},
		{"max_over_time", 50, 40},
		{"increase", 20, 20},
		{"rate", 20.0 / 120, 20.0 / 120},
	} {
		got, ok := bruteRangeFunc(c.fn, counter, 300_000, 180_000) // (120s, 300s]
		if !ok || !closeTo(got, c.want) {
			t.Errorf("%s = %v, want %v", c.fn, got, c.want)
		}
		if c.fn == "increase" || c.fn == "rate" {
			continue
		}
		if closeTo(got, c.shifted) {
			t.Errorf("%s accepts the edge-shifted answer %v", c.fn, c.shifted)
		}
	}
}

func TestBruteIncreaseRejectsMovedEdgeSample(t *testing.T) {
	// Moving the sample at 120s to 121s brings it into (120s, 300s]: the
	// window then starts one scrape earlier and the increase grows.
	moved := append([]sample(nil), counter...)
	moved[1].T = 121_000
	a, _ := bruteRangeFunc("increase", counter, 300_000, 180_000)
	b, _ := bruteRangeFunc("increase", moved, 300_000, 180_000)
	if a != 20 || b != 30 {
		t.Fatalf("increase = %v and %v after moving the edge sample, want 20 and 30", a, b)
	}
}

func TestBruteIncreaseCounterReset(t *testing.T) {
	ss := []sample{{1000, 5}, {2000, 9}, {3000, 2}, {4000, 6}}
	if got, _ := bruteRangeFunc("increase", ss, 4000, 4000); got != 4+2+4 {
		t.Fatalf("increase across a reset = %v, want 10", got)
	}
}

func TestCPUTimeBound(t *testing.T) {
	// A job of 4 CPUs at full use for 10 scrapes of 15s: 600 CPU-s. The
	// scrapes miss its first and last interval, 2 x 15s x 4 = 120 CPU-s.
	truth, recorded := 600.0, 480.0
	if !cpuTimeWithinBound(recorded, truth, 4, 15) {
		t.Fatal("hand-computed recorded CPU time rejected")
	}
	if cpuTimeWithinBound(recorded-15*4, truth, 4, 15) || cpuTimeNotBelowBound(recorded-15*4, truth, 4, 15) {
		t.Fatal("one more scrape interval of CPU time missing is accepted")
	}
	if !cpuTimeNotAboveTruth(recorded-15*4, truth) {
		t.Fatal("the upper side rejects CPU time below the truth")
	}
	if cpuTimeWithinBound(truth+1, truth, 4, 15) || cpuTimeNotAboveTruth(truth+1, truth) {
		t.Fatal("CPU time above the truth is accepted")
	}
}

func TestEmissionsConsistent(t *testing.T) {
	// 3.6 MJ = 1 kWh at 56 g/kWh.
	if !emissionsConsistent(56, 3.6e6, 56) {
		t.Fatal("hand-computed emissions rejected")
	}
	// One 15s sample of 400 W more energy than the emissions account for.
	if emissionsConsistent(56, 3.6e6+400*15, 56) {
		t.Fatal("emissions missing one sample of energy accepted")
	}
}

func TestSameResultRejectsMovedPoint(t *testing.T) {
	want := map[string][]sample{"a=1,": {{1000, 1}, {2000, 2}}}
	got := map[string][]sample{"a=1,": {{1000, 1}, {2000, 2}}}
	if !sameResult(got, want) {
		t.Fatal("identical results differ")
	}
	got["a=1,"][1].T = 2001
	if sameResult(got, want) {
		t.Fatal("a point moved by 1ms is accepted")
	}
}

func TestParseExposition(t *testing.T) {
	body := "# HELP x y\n# TYPE x gauge\nx{a=\"1\",b=\"q\\\"z\"} 2.5\nup 1 1700000000000\n"
	got, err := parseExposition(body)
	if err != nil || len(got) != 2 {
		t.Fatalf("parse: %v %v", got, err)
	}
	if got[0].labels["__name__"] != "x" || got[0].labels["b"] != `q"z` || got[0].value != 2.5 {
		t.Fatalf("first sample = %+v", got[0])
	}
	if got[1].labels["__name__"] != "up" || got[1].value != 1 {
		t.Fatalf("second sample = %+v", got[1])
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	parent := Span{ID: 1, Start: 0, End: 100}
	kids := []Span{{Start: 10, End: 40}, {Start: 30, End: 50}, {Start: 90, End: 120}}
	if c := covered(parent, kids); c != 40+10 {
		t.Fatalf("covered = %d, want 50", c)
	}
}

func TestBucketEdgeAnswerHandComputed(t *testing.T) {
	// One sample a minute with value k at minute k; sum_over_time[3m] at
	// minutes 3, 6 and 9. The brute force reads (t-3m, t]; the fault reads
	// (0, 3m) first, [3m, 6m) in the middle and [6m, 9m] last.
	const m = int64(60_000)
	var ss []sample
	for k := int64(0); k <= 9; k++ {
		ss = append(ss, sample{k * m, float64(k)})
	}
	want := map[string][]sample{"a=1,": {{3 * m, 1 + 2 + 3}, {6 * m, 4 + 5 + 6}, {9 * m, 7 + 8 + 9}}}
	faulty := map[string][]faultPoint{}
	for _, ts := range []int64{3 * m, 6 * m, 9 * m} {
		faulty["a=1,"] = append(faulty["a=1,"], bucketEdgeAnswer("sum_over_time", ss, ts, 3*m, 9*m, 3*m))
	}
	for i, v := range []float64{1 + 2, 3 + 4 + 5, 6 + 7 + 8 + 9} {
		if f := faulty["a=1,"][i]; f.lo != v || f.hi != v {
			t.Fatalf("fault answer %d = [%v, %v], want %v", i, f.lo, f.hi, v)
		}
	}
	got := map[string][]sample{"a=1,": {{3 * m, 3}, {6 * m, 12}, {9 * m, 30}}}
	var pt pointTally
	if !pt.tally(got, want, faulty) || pt.faulty != 3 {
		t.Fatalf("the fault's hand-computed answer is not recognised: %+v", pt)
	}
	// A middle point that lost one more sample is not the fault.
	got["a=1,"][1].V = 3 + 4
	if pt.tally(got, want, faulty) {
		t.Fatal("a point missing a sample inside the window is taken for the fault")
	}
	// Nor is a right answer for the wrong series.
	if pt.tally(map[string][]sample{"a=2,": want["a=1,"]}, want, faulty) {
		t.Fatal("an answer for another series is taken for the fault")
	}
}

func TestBucketEdgeAnswerBoundsAvgEdges(t *testing.T) {
	ss := []sample{{0, 10}, {60_000, 20}, {120_000, 30}, {180_000, 40}}
	f := bucketEdgeAnswer("avg_over_time", ss, 180_000, 180_000, 360_000, 180_000)
	if f.lo != 10 || f.hi != 40 || !f.holds(25) || f.holds(41) {
		t.Fatalf("avg edge bound = [%v, %v]", f.lo, f.hi)
	}
}
