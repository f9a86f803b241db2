package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"cusango/internal/apps/jacobi"
	"cusango/internal/apps/tealeaf"
	"cusango/internal/core"
	"cusango/internal/kir"
)

// appRanks is the world size of every app run.
const appRanks = 2

// setupReps is how often a run sets up before measuring. Each
// measurement round sets up once more, so setup_s, the median, samples
// the same machine conditions as the measured runs.
const setupReps = 3

// variant selects one configuration of an app run.
type variant struct {
	interp bool // interpret kernels instead of running natives
	inject bool // enable the app's injected race
	warm   bool // warm-up length
	tiny   bool // self-test size
}

// appSpec is one app workload.
type appSpec struct {
	name   string
	module func() *kir.Module
	// interp says whether the measured runs interpret the kernels.
	interp bool
	// run executes one rank and returns the final residual.
	run func(s *core.Session, v variant) (float64, error)
}

var jacobiApp = appSpec{
	name:   "jacobi",
	module: jacobi.Module,
	run: func(s *core.Session, v variant) (float64, error) {
		cfg := jacobi.DefaultConfig()
		if v.tiny {
			cfg.NX, cfg.NY, cfg.Iters = 64, 32, 10
		}
		if v.warm {
			cfg.Iters = 10
		}
		cfg.Interpreted = v.interp
		cfg.SkipSync = v.inject
		r, err := jacobi.Run(s, cfg)
		if err != nil {
			return 0, err
		}
		return r.LastNorm, nil
	},
}

var tealeafApp = appSpec{
	name:   "tealeaf",
	module: tealeaf.Module,
	interp: true,
	run: func(s *core.Session, v variant) (float64, error) {
		cfg := tealeaf.DefaultConfig()
		if v.tiny {
			cfg.NX, cfg.NY, cfg.Iters = 32, 32, 5
		}
		if v.warm {
			cfg.Iters = 5
		}
		cfg.Interpreted = v.interp
		cfg.SkipWait = v.inject
		r, err := tealeaf.Run(s, cfg)
		if err != nil {
			return 0, err
		}
		return r.LastRR, nil
	},
}

// appRun is the outcome of one app run.
type appRun struct {
	wall  time.Duration
	alloc uint64
	res   *core.Result
	resid float64
	err   error
}

// body adapts the app to core.Run, keeping rank 0's residual.
func (a *appSpec) body(v variant, resid *float64) func(s *core.Session) error {
	return func(s *core.Session) error {
		r, err := a.run(s, v)
		if s.Rank() == 0 {
			*resid = r
		}
		return err
	}
}

func (a *appSpec) exec(mod *kir.Module, fl core.Flavor, v variant) appRun {
	var out appRun
	app := a.body(v, &out.resid)
	out.wall, out.alloc = measure(func() {
		out.res, out.err = core.Run(core.Config{Flavor: fl, Ranks: appRanks, Module: mod}, app)
	})
	if out.err == nil {
		out.err = out.res.FirstError()
	}
	return out
}

// closeTo reports whether x is within 1e-9 relative of ref.
func closeTo(x, ref float64) bool {
	return math.Abs(x-ref) <= 1e-9*math.Abs(ref)
}

// cleanChecks are the verdicts of a checked run of the correct app.
func cleanChecks(res *core.Result, resid, ref float64) []check {
	return []check{
		expect(res.TotalRaces() == 0, "%d races on the correct app", res.TotalRaces()),
		expect(res.TotalIssues() == 0, "%d MUST issues on the correct app", res.TotalIssues()),
		expect(closeTo(resid, ref), "residual %v, native reference %v", resid, ref),
	}
}

// maxRSS is the largest modeled RSS over ranks.
func maxRSS(res *core.Result) int64 {
	var m int64
	for i := range res.Ranks {
		if r := res.Ranks[i].ModeledRSS(); r > m {
			m = r
		}
	}
	return m
}

func runApp(spec appSpec, opt options) (*result, error) {
	t := &tally{log: opt.log}
	measured := variant{interp: spec.interp, tiny: opt.tiny}

	// Set-up: module build plus a short warm-up pair.
	var setups []float64
	setup := func() *kir.Module {
		runtime.GC()
		t0 := time.Now()
		mod := spec.module()
		warm := measured
		warm.warm = true
		for _, fl := range []core.Flavor{core.Vanilla, core.MUSTCuSan} {
			r := spec.exec(mod, fl, warm)
			t.run(fmt.Sprintf("%s warm-up %v", spec.name, fl), r.err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return mod
	}
	mod := setup()
	for len(setups) < setupReps {
		setup()
	}

	// The residual reference comes from native kernels without tools:
	// an implementation independent of the interpreter under test.
	ref := spec.exec(mod, core.Vanilla, variant{tiny: opt.tiny})
	t.run(spec.name+" native reference", ref.err)

	// The race-injected variant must be caught.
	inj := spec.exec(mod, core.MUSTCuSan, variant{interp: spec.interp, inject: true, tiny: opt.tiny})
	var injChecks []check
	if inj.err == nil {
		races := inj.res.TotalRaces()
		if opt.forceWrong {
			injChecks = append(injChecks, expect(races == 0, "%d races, forced expectation: none", races))
		} else {
			injChecks = append(injChecks, expect(races >= 1, "no race reported on the injected variant"))
		}
	}
	t.run(spec.name+" injected race", inj.err, injChecks...)

	if opt.trace {
		layers := map[string]metric{}
		coreLayers(layers, mod, appRanks, 20)
		var resid float64
		u := unit{
			name:   spec.name,
			ranks:  appRanks,
			module: mod,
			app:    spec.body(measured, &resid),
			verdict: func(res *core.Result) []check {
				return cleanChecks(res, resid, ref.resid)
			},
			resid: func() float64 { return resid },
		}
		probe([]unit{u}, 2, t).emit(layers)
		for name, unit := range campaignLayers {
			layers[name] = metric{0, unit}
		}
		return t.finish(opt, nil, layers), nil
	}

	// Measurement: interleaved Vanilla / MUST+CuSan pairs, alternating
	// which side runs first, until the run's time is up.
	minPairs := 3
	if opt.tiny {
		minPairs = 1
	}
	var checkedS, vanillaS, ratios, allocs []float64
	var memX float64
	var firstCtr *counters
	end := deadline(opt)
	for i := 0; i < minPairs || time.Now().Before(end); i++ {
		setup()
		order := []core.Flavor{core.Vanilla, core.MUSTCuSan}
		if i%2 == 1 {
			order = []core.Flavor{core.MUSTCuSan, core.Vanilla}
		}
		var van, chk appRun
		for _, fl := range order {
			if fl == core.Vanilla {
				van = spec.exec(mod, fl, measured)
			} else {
				chk = spec.exec(mod, fl, measured)
			}
		}
		if van.err != nil || chk.err != nil {
			t.run(fmt.Sprintf("%s vanilla #%d", spec.name, i), van.err)
			t.run(fmt.Sprintf("%s checked #%d", spec.name, i), chk.err)
			continue
		}
		t.run(fmt.Sprintf("%s vanilla #%d", spec.name, i), nil,
			expect(closeTo(van.resid, ref.resid), "residual %v, native reference %v", van.resid, ref.resid))
		t.run(fmt.Sprintf("%s checked #%d", spec.name, i), nil, cleanChecks(chk.res, chk.resid, ref.resid)...)
		checkedS = append(checkedS, chk.wall.Seconds())
		vanillaS = append(vanillaS, van.wall.Seconds())
		ratios = append(ratios, chk.wall.Seconds()/van.wall.Seconds())
		allocs = append(allocs, float64(chk.alloc))
		mx := float64(maxRSS(chk.res)) / float64(maxRSS(van.res))
		c := countersOf(chk.res)
		if firstCtr == nil {
			firstCtr, memX = &c, mx
		} else {
			compareCounters(t, spec.name, *firstCtr, c)
			if mx != memX {
				t.flagMismatch(spec.name+" mem_overhead_x", memX, mx)
			}
		}
	}
	fmt.Fprintf(opt.log, "%s: setups %v\n%d pairs, checked %v, vanilla %v, ratios %v\n",
		spec.name, setups, len(ratios), checkedS, vanillaS, ratios)
	checked := median(checkedS)
	e2e := map[string]metric{
		"setup_s":        {median(setups), "s"},
		"checked_s":      {checked, "s"},
		"vanilla_s":      {median(vanillaS), "s"},
		"overhead_x":     {median(ratios), "x"},
		"mem_overhead_x": {memX, "x"},
		"alloc_mb":       {median(allocs) / 1e6, "MB"},
		// On an app workload a job is one MUST+CuSan run.
		"jobs_per_s": {ratio(1, checked), "1/s"},
		"job_p50_ms": {1e3 * checked, "ms"},
	}
	return t.finish(opt, e2e, nil), nil
}
