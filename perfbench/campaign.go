package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"cusango/internal/campaign"
	"cusango/internal/core"
	"cusango/internal/kir"
	"cusango/internal/testsuite"
	"cusango/internal/tsan"
)

// chaosSeeds fault seeds are derived from the workload seed; with the
// other kinds they give the campaign more than 1000 jobs.
const chaosSeeds = 16

// suitePairs is the number of Vanilla / MUST+CuSan suite-pass pairs
// measured per campaign round.
const suitePairs = 8

// chaosRate is the per-site fault rate of the chaos jobs (the
// cusan-campaign default).
const chaosRate = 0.05

// campaignKinds are the job kinds of the campaign, in enumeration order.
var campaignKinds = []string{
	testsuite.KindSuite, testsuite.KindReplay, testsuite.KindExplore,
	testsuite.KindStatic, testsuite.KindChaos,
}

func suiteCases(opt options) []testsuite.Case {
	cases := testsuite.Cases()
	if opt.tiny {
		cases = cases[:4]
	}
	return cases
}

// campaignJobs enumerates the campaign: every suite case as a suite,
// replay and explore job, the static jobs, and chaos jobs under fault
// seeds derived from the workload seed.
func campaignJobs(opt options) []campaign.Job {
	cases := suiteCases(opt)
	n := chaosSeeds
	if opt.tiny {
		n = 1
	}
	seeds := make([]uint64, n)
	s := opt.seed
	for i := range seeds {
		s = splitmix64(s)
		seeds[i] = s
	}
	eng := []tsan.Engine{tsan.EngineBatched}
	jobs := testsuite.SuiteJobs(cases, eng)
	jobs = append(jobs, testsuite.ReplayJobs(cases, eng)...)
	jobs = append(jobs, testsuite.ExploreJobs(cases, eng, 0, 0)...)
	jobs = append(jobs, testsuite.StaticJobs()...)
	jobs = append(jobs, testsuite.ChaosJobs(cases, seeds, chaosRate, eng)...)
	return jobs
}

// jobTimer wraps testsuite.ExecuteJob and keeps each job's exec time.
type jobTimer struct {
	mu     sync.Mutex
	all    []float64 // ms
	byKind map[string][]float64
	sum    time.Duration
}

func newJobTimer() *jobTimer { return &jobTimer{byKind: map[string][]float64{}} }

func (jt *jobTimer) exec(j campaign.Job) *campaign.Record {
	t0 := time.Now()
	r := testsuite.ExecuteJob(j)
	d := time.Since(t0)
	ms := 1e3 * d.Seconds()
	jt.mu.Lock()
	jt.all = append(jt.all, ms)
	jt.byKind[j.Kind] = append(jt.byKind[j.Kind], ms)
	jt.sum += d
	jt.mu.Unlock()
	return r
}

// coldRun is one cold campaign and its warm rerun.
type coldRun struct {
	wall, warmWall time.Duration
	alloc          uint64
	rep, warmRep   *campaign.Report
	times          *jobTimer
}

// coldCampaign runs the jobs on the empty cache cold, checks every
// verdict, reruns them on the filled cache that warm returns, and checks
// that the canonical reports match byte for byte.
func coldCampaign(opt options, jobs []campaign.Job, cold *campaign.Cache, warm func() (*campaign.Cache, error), t *tally) (*coldRun, error) {
	workers := runtime.NumCPU()
	cr := &coldRun{times: newJobTimer()}
	cr.wall, cr.alloc = measure(func() {
		cr.rep = campaign.Run(jobs, cr.times.exec, campaign.Options{Workers: workers, Cache: cold, Salt: "perfbench"})
	})
	want := campaign.VerdictPass
	if opt.forceWrong {
		want = campaign.VerdictFail
	}
	for k, r := range cr.rep.Records {
		what := fmt.Sprintf("job %s %s seed=%d", jobs[k].Kind, jobs[k].Case, jobs[k].Seed)
		if r == nil {
			t.run(what, fmt.Errorf("no record"))
			continue
		}
		t.run(what, nil, expect(r.Verdict == want, "verdict %s (%s), want %s", r.Verdict, r.AppFault, want))
	}

	filled, err := warm()
	if err != nil {
		return nil, err
	}
	cr.warmWall, _ = measure(func() {
		cr.warmRep = campaign.Run(jobs, testsuite.ExecuteJob, campaign.Options{Workers: workers, Cache: filled, Salt: "perfbench"})
	})
	var first, again bytes.Buffer
	err = cr.rep.WriteJSONL(&first, false)
	if err == nil {
		err = cr.warmRep.WriteJSONL(&again, false)
	}
	t.run("campaign warm rerun", err,
		expect(bytes.Equal(first.Bytes(), again.Bytes()), "canonical JSONL of the warm rerun differs from the cold run"))
	return cr, nil
}

// memCampaign is a cold campaign on a fresh in-process cache.
func memCampaign(opt options, jobs []campaign.Job, t *tally) (*coldRun, error) {
	cache := campaign.NewMemCache()
	return coldCampaign(opt, jobs, cache, func() (*campaign.Cache, error) { return cache, nil }, t)
}

// dirCampaign is a cold campaign on a fresh directory cache under the
// work dir. The warm rerun opens the directory afresh, so every hit is
// read back from disk.
func dirCampaign(opt options, jobs []campaign.Job, t *tally) (*coldRun, error) {
	dir, err := os.MkdirTemp(opt.workDir, "cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cache, err := campaign.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	return coldCampaign(opt, jobs, cache, func() (*campaign.Cache, error) { return campaign.OpenDir(dir) }, t)
}

// suitePass runs every case once under one flavor, adding each case's
// wall time to times[case], and returns the summed modeled RSS (max
// over ranks, per case).
func suitePass(cases []testsuite.Case, mod *kir.Module, fl core.Flavor, times [][]float64, t *tally) (int64, bool) {
	var rss int64
	ok := true
	runtime.GC()
	for i, c := range cases {
		ranks := c.Ranks
		if ranks == 0 {
			ranks = 2
		}
		t0 := time.Now()
		res, err := core.Run(core.Config{Flavor: fl, Ranks: ranks, Module: mod}, c.App)
		times[i] = append(times[i], time.Since(t0).Seconds())
		if err == nil {
			err = res.FirstError()
		}
		what := fmt.Sprintf("suite pass %v %s", fl, c.Name)
		if err != nil {
			t.run(what, err)
			ok = false
			continue
		}
		rss += maxRSS(res)
		if fl == core.Vanilla {
			t.run(what, nil)
			continue
		}
		t.run(what, nil, classify(c, res)...)
	}
	return rss, ok
}

// typicalPass sums the per-case median times: the time of a suite pass
// in which no case is disturbed. A plain sum over a pass of sixty runs
// of well under a millisecond would collect every scheduling hiccup.
func typicalPass(times [][]float64) float64 {
	var sum float64
	for _, xs := range times {
		sum += median(xs)
	}
	return sum
}

// classify checks a checked run of a suite case against its
// classification (races expected or not, and the expected MUST issue).
func classify(c testsuite.Case, res *core.Result) []check {
	races := res.TotalRaces()
	checks := []check{expect((races > 0) == c.ExpectRace, "%d races, expect race=%v", races, c.ExpectRace)}
	if c.ExpectIssue != nil {
		found := false
		for i := range res.Ranks {
			for _, is := range res.Ranks[i].Issues {
				found = found || is.Kind == *c.ExpectIssue
			}
		}
		checks = append(checks, expect(found, "expected MUST issue %v missing", *c.ExpectIssue))
	}
	return checks
}

// campaignLayers are the per-layer metrics only the campaign workload
// exercises, with their units. An app workload reports them as 0.
var campaignLayers = map[string]string{
	"campaign.busy_share":           "ratio",
	"campaign.overhead_s":           "s",
	"campaign.dir_cold_s":           "s",
	"campaign.warm_s":               "s",
	"campaign.warm_hit_share":       "ratio",
	"campaign.job_p99_ms":           "ms",
	"explore.schedules":             "count",
	"explore.pruned":                "count",
	"testsuite.suite.exec_ms_p50":   "ms",
	"testsuite.replay.exec_ms_p50":  "ms",
	"testsuite.explore.exec_ms_p50": "ms",
	"testsuite.static.exec_ms_p50":  "ms",
	"testsuite.chaos.exec_ms_p50":   "ms",
}

func runCampaign(opt options) (*result, error) {
	t := &tally{log: opt.log}
	cases := suiteCases(opt)
	jobs := campaignJobs(opt)
	workers := runtime.NumCPU()
	fmt.Fprintf(opt.log, "campaign: %d jobs, %d workers\n", len(jobs), workers)

	// Set-up: module build plus a warm-up pass of the suite jobs.
	var setups []float64
	setup := func() *kir.Module {
		runtime.GC()
		t0 := time.Now()
		mod := testsuite.Module()
		warm := campaign.Run(testsuite.SuiteJobs(cases, []tsan.Engine{tsan.EngineBatched}),
			testsuite.ExecuteJob, campaign.Options{Workers: workers})
		setups = append(setups, time.Since(t0).Seconds())
		pass, _, _ := warm.Counts()
		t.run("campaign warm-up", nil, expect(pass == len(warm.Records), "warm-up: %d of %d jobs pass", pass, len(warm.Records)))
		return mod
	}
	mod := setup()
	for len(setups) < setupReps {
		setup()
	}

	minIters := 3
	if opt.tiny {
		minIters = 1
	}

	if opt.trace {
		layers := map[string]metric{}
		coreLayers(layers, mod, 2, 20)
		units := make([]unit, len(cases))
		for i, c := range cases {
			ranks := c.Ranks
			if ranks == 0 {
				ranks = 2
			}
			units[i] = unit{
				name: c.Name, ranks: ranks, module: mod, app: c.App,
				verdict: func(res *core.Result) []check { return classify(c, res) },
			}
		}
		probe(units, 3, t).emit(layers)

		var busy, over, dirCold, warmS, hit, jobMS []float64
		byKind := map[string][]float64{}
		var schedules, pruned int
		for i := 0; i < minIters; i++ {
			dc, err := dirCampaign(opt, jobs, t)
			if err != nil {
				return nil, err
			}
			dirCold = append(dirCold, dc.wall.Seconds())
			warmS = append(warmS, dc.warmWall.Seconds())
			hit = append(hit, ratio(float64(dc.warmRep.CacheHits), float64(len(jobs))))

			cr, err := memCampaign(opt, jobs, t)
			if err != nil {
				return nil, err
			}
			w := cr.wall.Seconds()
			sum := cr.times.sum.Seconds()
			busy = append(busy, sum/(w*float64(workers)))
			over = append(over, w-sum/float64(workers))
			jobMS = append(jobMS, cr.times.all...)
			for k, xs := range cr.times.byKind {
				byKind[k] = append(byKind[k], xs...)
			}
			if i == 0 {
				for _, r := range cr.rep.Records {
					if r != nil {
						schedules += r.Explored
						pruned += r.Pruned
					}
				}
			}
		}
		set := func(name string, v float64) { layers[name] = metric{v, campaignLayers[name]} }
		set("campaign.busy_share", median(busy))
		set("campaign.overhead_s", median(over))
		set("campaign.dir_cold_s", median(dirCold))
		set("campaign.warm_s", median(warmS))
		set("campaign.warm_hit_share", median(hit))
		set("campaign.job_p99_ms", p99(jobMS))
		set("explore.schedules", float64(schedules))
		set("explore.pruned", float64(pruned))
		for _, k := range campaignKinds {
			set("testsuite."+k+".exec_ms_p50", median(byKind[k]))
		}
		return t.finish(opt, nil, layers), nil
	}

	// The directory cache must round-trip every record through disk.
	// Its cold campaign is checked once per run but not timed: each
	// record is fsynced, and the shared disk's latency varies too much
	// between runs for a gated figure (the traced run reports it).
	if _, err := dirCampaign(opt, jobs, t); err != nil {
		return nil, err
	}

	// Measurement: cold campaigns on a fresh in-process cache, each
	// followed by its warm rerun and interleaved Vanilla / MUST+CuSan
	// passes over the suite programs.
	var rates, allocs, jobMS []float64
	var memX float64
	// Per-case wall times of the suite passes, and per-case ratios of
	// the checked to the Vanilla time within each pair.
	checkedCase := make([][]float64, len(cases))
	vanillaCase := make([][]float64, len(cases))
	ratioCase := make([][]float64, len(cases))
	end := deadline(opt)
	for i := 0; i < minIters || time.Now().Before(end); i++ {
		setup()
		cr, err := memCampaign(opt, jobs, t)
		if err != nil {
			return nil, err
		}
		rates = append(rates, float64(len(jobs))/cr.wall.Seconds())
		allocs = append(allocs, float64(cr.alloc))
		jobMS = append(jobMS, cr.times.all...)

		// A suite pass is short, so each round measures several pairs.
		for k := 0; k < suitePairs; k++ {
			order := []core.Flavor{core.Vanilla, core.MUSTCuSan}
			if k%2 == 1 {
				order = []core.Flavor{core.MUSTCuSan, core.Vanilla}
			}
			var rv, rc int64
			okAll := true
			for _, fl := range order {
				times := vanillaCase
				if fl == core.MUSTCuSan {
					times = checkedCase
				}
				rss, ok := suitePass(cases, mod, fl, times, t)
				okAll = okAll && ok
				if fl == core.Vanilla {
					rv = rss
				} else {
					rc = rss
				}
			}
			if !okAll {
				continue
			}
			for c := range cases {
				n := len(checkedCase[c]) - 1
				ratioCase[c] = append(ratioCase[c], checkedCase[c][n]/vanillaCase[c][n])
			}
			mx := float64(rc) / float64(rv)
			if memX == 0 {
				memX = mx
			} else if mx != memX {
				t.flagMismatch("suite mem_overhead_x", memX, mx)
			}
		}
	}
	checked, vanilla := typicalPass(checkedCase), typicalPass(vanillaCase)
	caseRatios := make([]float64, len(cases))
	for c, xs := range ratioCase {
		caseRatios[c] = median(xs)
	}
	fmt.Fprintf(opt.log, "campaign: setups %v\n%d cold runs, jobs/s %v\ntypical suite pass: checked %v s, vanilla %v s\n",
		setups, len(rates), rates, checked, vanilla)
	e2e := map[string]metric{
		"setup_s":        {median(setups), "s"},
		"checked_s":      {checked, "s"},
		"vanilla_s":      {vanilla, "s"},
		"overhead_x":     {median(caseRatios), "x"},
		"mem_overhead_x": {memX, "x"},
		"alloc_mb":       {median(allocs) / 1e6, "MB"},
		"jobs_per_s":     {median(rates), "1/s"},
		"job_p50_ms":     {median(jobMS), "ms"},
	}
	return t.finish(opt, e2e, nil), nil
}
