// Command perfbench is the repository benchmark. It drives the checker
// from outside, through its public entry points only, and prints one
// JSON result line per run:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see README.md for why each was chosen):
//
//	jacobi-checked  Jacobi 512x256, native kernels, Vanilla vs MUST+CuSan pairs
//	tealeaf-interp  TeaLeaf 96x96, interpreted kernels, Vanilla vs MUST+CuSan pairs
//	suite-campaign  cold check campaigns over the 60-case correctness suite
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate run times the layers one by one and carries the
// per-layer metrics. Every run checks the program's outputs and counts
// misses instead of aborting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every input so the self-test finishes in seconds.
	tiny bool
	// forceWrong inverts the expectation of the race-injected app run
	// and of every campaign verdict, so the self-test can prove that a
	// wrong verdict is counted.
	forceWrong bool
	// workDir holds the campaign caches; it is removed afterwards.
	workDir string
	// log receives the human-readable progress lines.
	log io.Writer
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(opt options) (*result, error){
	"jacobi-checked": func(opt options) (*result, error) { return runApp(jacobiApp, opt) },
	"tealeaf-interp": func(opt options) (*result, error) { return runApp(tealeafApp, opt) },
	"suite-campaign": runCampaign,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: jacobi-checked, tealeaf-interp or suite-campaign")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measurement time per run")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds < 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (jacobi-checked|tealeaf-interp|suite-campaign), --seconds >= 0, --trace 0|1\n")
		return 2
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// Campaign caches live inside the working directory, never in the
	// system temp dir: the benchmark touches nothing outside its checkout.
	work, err := os.MkdirTemp(wd, ".bench_work-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	opt := options{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traceFlag == 1,
		workDir:  work,
		log:      stdout,
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d %s\n",
		opt.workload, opt.seed, opt.seconds, opt.trace,
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res, err := runner(opt)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// tally counts attempted runs or jobs, failed ones and wrong verdicts.
// A run fails when it errors or any of its verdicts is wrong.
type tally struct {
	log       io.Writer
	attempted int
	failed    int
	verdicts  int
	wrong     int
	// mismatches counts exact work counters that differed between two
	// runs of the same input; they are flagged, never averaged.
	mismatches int
}

// run records one attempted unit of work: err is an execution failure,
// checks are the verdicts the work produced.
func (t *tally) run(what string, err error, checks ...check) {
	t.attempted++
	failed := err != nil
	if err != nil {
		fmt.Fprintf(t.log, "FAIL %s: %v\n", what, err)
	}
	for _, c := range checks {
		t.verdicts++
		if !c.ok {
			t.wrong++
			failed = true
			fmt.Fprintf(t.log, "WRONG %s: %s\n", what, c.what)
		}
	}
	if failed {
		t.failed++
	}
}

// check is one verdict: ok says whether the output matched the
// expectation described by what.
type check struct {
	ok   bool
	what string
}

func expect(ok bool, format string, args ...any) check {
	return check{ok: ok, what: fmt.Sprintf(format, args...)}
}

// flagMismatch reports an exact counter that moved between runs.
func (t *tally) flagMismatch(what string, a, b any) {
	t.mismatches++
	fmt.Fprintf(t.log, "COUNTER MISMATCH %s: %v vs %v\n", what, a, b)
}

// finish builds the result line around the workload's metrics.
func (t *tally) finish(opt options, e2e, layers map[string]metric) *result {
	res := &result{
		Correct:   t.failed == 0 && t.wrong == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
	}
	if opt.trace {
		layers["bench.verdicts_wrong"] = metric{float64(t.wrong), "count"}
		layers["bench.failed_share"] = metric{ratio(float64(t.failed), float64(t.attempted)), "ratio"}
		layers["bench.counter_mismatches"] = metric{float64(t.mismatches), "count"}
		res.Metrics = layers
	} else {
		e2e["verdicts_right_share"] = metric{ratio(float64(t.verdicts-t.wrong), float64(t.verdicts)), "ratio"}
		e2e["ok_share"] = metric{ratio(float64(t.attempted-t.failed), float64(t.attempted)), "ratio"}
		res.Metrics = e2e
	}
	fmt.Fprintf(opt.log, "attempted=%d failed=%d verdicts=%d wrong=%d counter_mismatches=%d\n",
		t.attempted, t.failed, t.verdicts, t.wrong, t.mismatches)
	return res
}

// deadline returns when the measurement loop of a run ends.
func deadline(opt options) time.Time {
	return time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
}
