package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs one workload at the self-test size.
func runTiny(t *testing.T, workload string, trace, forceWrong bool) *result {
	t.Helper()
	var log bytes.Buffer
	res, err := workloads[workload](options{
		workload:   workload,
		seed:       7,
		trace:      trace,
		tiny:       true,
		forceWrong: forceWrong,
		workDir:    t.TempDir(),
		log:        &log,
	})
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, log.String())
	}
	if res.Attempted < 1 {
		t.Fatalf("%s: attempted %d", workload, res.Attempted)
	}
	if !forceWrong && (!res.Correct || res.Failed != 0) {
		t.Fatalf("%s: correct=%v failed=%d\n%s", workload, res.Correct, res.Failed, log.String())
	}
	return res
}

// TestEveryMetricEmitted runs each workload in both modes and checks
// that the result line carries exactly the metrics BENCHMARK.json
// names, each with its unit.
func TestEveryMetricEmitted(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("workload %q has no runner", w.Name)
		}
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			res := runTiny(t, w.Name, trace, false)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestForcedWrongExpectationCounted inverts one expectation per check
// and requires the miss to show up in the verdict metrics.
func TestForcedWrongExpectationCounted(t *testing.T) {
	for name := range workloads {
		res := runTiny(t, name, true, true)
		if res.Correct || res.Failed == 0 || res.Metrics["bench.verdicts_wrong"].Value < 1 {
			t.Errorf("%s: forced-wrong expectation not counted: correct=%v failed=%d verdicts_wrong=%v",
				name, res.Correct, res.Failed, res.Metrics["bench.verdicts_wrong"].Value)
		}
		res = runTiny(t, name, false, true)
		if res.Correct || res.Metrics["verdicts_right_share"].Value >= 1 {
			t.Errorf("%s: forced-wrong expectation not counted: verdicts_right_share=%v",
				name, res.Metrics["verdicts_right_share"].Value)
		}
	}
}

// TestBadArguments requires a usage error to exit non-zero without a
// result line.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "suite-campaign", "--trace", "2"},
		{"--workload", "suite-campaign", "--seconds", "-1"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
