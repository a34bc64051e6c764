package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
)

// TestCheckersCountCorruptedResults feeds each checker a correct result and
// corrupted copies of it; every corruption must count as a failure.
func TestCheckersCountCorruptedResults(t *testing.T) {
	if err := checkCell("web", 40, 40); err != nil {
		t.Fatalf("correct cell rejected: %v", err)
	}
	if checkCell("web", 40, 39) == nil {
		t.Error("cell with a lost invocation passed")
	}

	good := rackOutcome{scheduled: 100, submitted: 100, completed: 100, done: 100}
	if err := checkRack(good); err != nil {
		t.Fatalf("correct replay rejected: %v", err)
	}
	for name, corrupt := range map[string]func(o *rackOutcome){
		"unsubmitted":  func(o *rackOutcome) { o.submitted-- },
		"incomplete":   func(o *rackOutcome) { o.completed-- },
		"unclassified": func(o *rackOutcome) { o.done++ },
		"invariant":    func(o *rackOutcome) { o.invariants = errors.New("tenant t2 reads a cross-tenant master") },
	} {
		o := good
		corrupt(&o)
		if checkRack(o) == nil {
			t.Errorf("%s replay passed", name)
		}
	}

	if err := checkReply("/run", 200, reply{status: 200, requests: 12}); err != nil {
		t.Fatalf("correct reply rejected: %v", err)
	}
	if err := checkReply("/run", 400, reply{status: 400, requests: -1}); err != nil {
		t.Fatalf("expected 400 rejected: %v", err)
	}
	if err := checkReply("/metrics", 200, reply{status: 200, body: "# HELP x\ngateway_runs_total 3\n"}); err != nil {
		t.Fatalf("correct scrape rejected: %v", err)
	}
	for name, c := range map[string]struct {
		path string
		want int
		r    reply
	}{
		"200 for invalid body": {"/run", 400, reply{status: 200, requests: 5}},
		"500 for valid body":   {"/run", 200, reply{status: 500, requests: -1}},
		"empty run":            {"/run", 200, reply{status: 200, requests: 0}},
		"scrape without runs":  {"/metrics", 200, reply{status: 200, body: "# HELP x\n"}},
	} {
		if checkReply(c.path, c.want, c.r) == nil {
			t.Errorf("%s passed", name)
		}
	}
}

// TestCorruptedRunCountsAsFailed runs the cycle loop with a step whose
// output check fails once and expects the failure in the phase's counts.
func TestCorruptedRunCountsAsFailed(t *testing.T) {
	ph := cycleLoop(0, 3, true, func(i int, _ *modelStats) (int, error) {
		if i == 1 {
			return 7, checkCell("json", 8, 7)
		}
		return 8, checkCell("json", 8, 8)
	})
	if ph.attempted != 3 || ph.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1", ph.attempted, ph.failed)
	}
}

// TestSmoke runs each workload briefly, untraced and traced, and checks
// that the result line and the report carry every metric with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range []string{"node-faasmem", "rack-azure", "gateway-mix"} {
		for _, traced := range []bool{false, true} {
			var report bytes.Buffer
			res, err := run(w, 1, 0.05, traced, t.TempDir(), &report)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d",
					w, traced, res.Correct, res.Attempted, res.Failed)
			}
			list := endToEnd
			if traced {
				list = perLayer
			}
			if len(res.Metrics) != len(list) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(list))
			}
			for _, m := range list {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w, traced, m.name, got, m.unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.name, got.Value)
				}
				if !strings.Contains(report.String(), m.name) {
					t.Errorf("%s traced=%v: report lacks %s", w, traced, m.name)
				}
			}
			if !strings.Contains(report.String(), "failed_pct") {
				t.Errorf("%s: report lacks failed_pct", w)
			}
		}
	}
}

// TestBenchmarkFileMatches checks that BENCHMARK.json at the repository root
// lists exactly the metrics the benchmark prints, with the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/faasmem/faasmem/internal/pagemem.(*Space).TransitionMasked": "pagemem",
		"github.com/faasmem/faasmem/internal/telemetry/span.(*Recorder).Start":  "telemetry",
		"github.com/faasmem/faasmem/perfbench.(*nodeFaaSMem).runCell":           "bench",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "runtime",
		"encoding/json.(*encodeState).marshal":    "json",
		"net/http.(*conn).serve":                  "http",
		"internal/poll.(*FD).Read":                "http",
		"sort.Float64s":                           "other",
		"aeshashbody":                             "runtime",
		"type:.eq.github.com/faasmem/faasmem/internal/telemetry/timeseries.seriesKey": "telemetry",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
