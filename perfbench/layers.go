package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"cusango/internal/core"
	"cusango/internal/kaccess"
	"cusango/internal/kinterp"
	"cusango/internal/kir"
	"cusango/internal/memspace"
	"cusango/internal/trace"
)

// unit is one program the layer probe runs under MUST+CuSan: an app
// configuration or one suite case.
type unit struct {
	name   string
	ranks  int
	module *kir.Module
	app    func(s *core.Session) error
	// verdict checks a checked run's findings against the expectation.
	verdict func(res *core.Result) []check
	// resid, when set, returns the residual the last run computed.
	resid func() float64
}

// counterNames names the exact work counters, in counters order.
var counterNames = [...]string{
	"tsan.engine_granules", "tsan.engine_fast_granules", "tsan.engine_pages",
	"tsan.range_cache_hits", "tsan.range_cache_misses", "tsan.releases_batched",
	"tsan.shadow_bytes",
	"cusan.kernel_calls", "cusan.memcpys", "cusan.fiber_switches",
	"cusan.hb_annotations", "cusan.ha_annotations", "cusan.read_bytes", "cusan.write_bytes",
	"must.nonblocking_calls", "must.completions", "must.fibers_created", "must.fibers_reused",
	"mpi.messages", "mpi.bytes_sent",
}

// counters holds one run's exact work counts, summed over ranks.
type counters [len(counterNames)]int64

func countersOf(res *core.Result) counters {
	var c counters
	for i := range res.Ranks {
		r := &res.Ranks[i]
		ts, cu, mu, mp := &r.TSanStats, &r.CudaCtrs, &r.MustStats, &r.MPIStats
		for j, v := range [...]int64{
			ts.EngineGranules, ts.EngineFastGranules, ts.EnginePages,
			ts.RangeCacheHits, ts.RangeCacheMisses, ts.ReleasesBatched,
			r.ShadowBytes,
			cu.KernelCalls, cu.Memcpys, cu.FiberSwitches,
			cu.HBAnnotations, cu.HAAnnotations, cu.ReadBytes, cu.WriteBytes,
			mu.NonBlockingCalls, mu.Completions, mu.FibersCreated, mu.FibersReused,
			mp.Sends + mp.Isends, mp.BytesSent,
		} {
			c[j] += v
		}
	}
	return c
}

// compareCounters flags every counter that differs between two runs of
// the same unit.
func compareCounters(t *tally, what string, a, b counters) {
	for i := range a {
		if a[i] != b[i] {
			t.flagMismatch(what+" "+counterNames[i], a[i], b[i])
		}
	}
}

// layerProbe holds the per-layer measurements of one traced run.
type layerProbe struct {
	ctr counters
	// plain and tapped are per-repetition sums of checked-run wall
	// times without and with the trace tap.
	plain, tapped []float64

	traceEvents, traceBytes int64
	decodeS, replayS, waitS float64

	launchS           float64
	launches, threads int64

	resids []float64
}

// probe runs every unit reps times under MUST+CuSan, alternately with
// and without the trace tap, and analyses the first repetition's
// recordings layer by layer: decode, checker replay of every rank, MPI
// wait spans, and the kernel interpreter re-running rank 0's launches.
func probe(units []unit, reps int, t *tally) *layerProbe {
	p := &layerProbe{}
	first := make([]*counters, len(units))
	for rep := 0; rep < reps; rep++ {
		var plain, tapped time.Duration
		for ui, u := range units {
			order := []bool{false, true}
			if rep%2 == 1 {
				order = []bool{true, false}
			}
			for _, tap := range order {
				cfg := core.Config{Flavor: core.MUSTCuSan, Ranks: u.ranks, Module: u.module}
				var bufs []*bytes.Buffer
				if tap {
					bufs = make([]*bytes.Buffer, u.ranks)
					cfg.Trace = func(rank int) *trace.Writer {
						bufs[rank] = &bytes.Buffer{}
						return trace.NewWriter(bufs[rank], trace.Header{Rank: rank, WorldSize: u.ranks, Label: u.name})
					}
				}
				var res *core.Result
				var err error
				d, _ := measure(func() { res, err = core.Run(cfg, u.app) })
				if err == nil {
					err = res.FirstError()
				}
				what := fmt.Sprintf("%s checked tap=%v", u.name, tap)
				if err != nil {
					t.run(what, err)
					continue
				}
				t.run(what, nil, u.verdict(res)...)
				if tap {
					tapped += d
				} else {
					plain += d
				}
				if u.resid != nil {
					p.resids = append(p.resids, u.resid())
				}
				c := countersOf(res)
				if first[ui] == nil {
					first[ui] = &c
					for i := range c {
						p.ctr[i] += c[i]
					}
				} else {
					compareCounters(t, u.name, *first[ui], c)
				}
				if tap && rep == 0 {
					p.analyse(u, bufs, res.TotalRaces(), t)
				}
			}
		}
		p.plain = append(p.plain, plain.Seconds())
		p.tapped = append(p.tapped, tapped.Seconds())
	}
	return p
}

// analyse decodes and replays one unit's recorded traces.
func (p *layerProbe) analyse(u unit, bufs []*bytes.Buffer, liveRaces int64, t *tally) {
	var replayed int64
	for rank, b := range bufs {
		p.traceBytes += int64(b.Len())
		t0 := time.Now()
		tr, err := trace.Decode(b.Bytes())
		p.decodeS += time.Since(t0).Seconds()
		if err != nil {
			t.run(fmt.Sprintf("%s decode rank %d", u.name, rank), err)
			return
		}
		p.traceEvents += int64(len(tr.Events))
		t0 = time.Now()
		rr, err := trace.Replay(tr, trace.ReplayConfig{})
		p.replayS += time.Since(t0).Seconds()
		if err != nil {
			t.run(fmt.Sprintf("%s replay rank %d", u.name, rank), err)
			return
		}
		replayed += rr.Races
		p.waitS += mpiWait(tr)
		if rank == 0 {
			t.run(u.name+" relaunch", p.relaunch(u.module, tr))
		}
	}
	t.run(u.name+" replay", nil,
		expect(replayed == liveRaces, "replayed races %d, live %d", replayed, liveRaces))
}

// mpiWait sums the Pre-to-Post spans of blocking receives and waits.
func mpiWait(tr *trace.Trace) float64 {
	var ns int64
	var recvAt, waitAt int64 = -1, -1
	for i := range tr.Events {
		ev := &tr.Events[i]
		switch ev.Op {
		case trace.OpRecvPost:
			recvAt = ev.Time
		case trace.OpRecvDone:
			if recvAt >= 0 {
				ns += ev.Time - recvAt
				recvAt = -1
			}
		case trace.OpWait:
			waitAt = ev.Time
		case trace.OpWaitDone:
			if waitAt >= 0 {
				ns += ev.Time - waitAt
				waitAt = -1
			}
		}
	}
	return float64(ns) / 1e9
}

// relaunch re-runs a rank's recorded kernel launches through a fresh
// interpreter. The memory is a fresh, zero-filled address space rebuilt
// from the recorded device allocations; the allocator is a
// deterministic bump allocator, so the recorded pointers resolve.
func (p *layerProbe) relaunch(mod *kir.Module, tr *trace.Trace) error {
	eng, err := kinterp.New(mod, kinterp.Config{})
	if err != nil {
		return err
	}
	mem := memspace.New()
	for i := range tr.Events {
		ev := &tr.Events[i]
		switch ev.Op {
		case trace.OpAllocDone:
			if a := mem.Alloc(ev.Size, memspace.Kind(ev.Kind)); uint64(a) != ev.Addr {
				return fmt.Errorf("allocation %d at %#x, recorded %#x", i, uint64(a), ev.Addr)
			}
		case trace.OpFree:
			if err := mem.Free(memspace.Addr(ev.Addr)); err != nil {
				return err
			}
		case trace.OpKernelLaunch:
			args := make([]kinterp.Arg, len(ev.Args))
			for j := range ev.Args {
				a := &ev.Args[j]
				args[j] = kinterp.Arg{
					Kind: kinterp.ArgKind(a.Kind),
					F:    math.Float64frombits(a.Bits),
					I:    a.Int,
					Ptr:  memspace.Addr(a.Ptr),
				}
			}
			grid := kinterp.Dim2(int(ev.GridX), int(ev.GridY))
			block := kinterp.Dim2(int(ev.BlockX), int(ev.BlockY))
			t0 := time.Now()
			err := eng.Launch(ev.Name, grid, block, args, mem)
			p.launchS += time.Since(t0).Seconds()
			if err != nil {
				return err
			}
			p.launches++
			p.threads += int64(grid.Count() * block.Count())
		}
	}
	return nil
}

// coreLayers times core.Run with a no-op body and kaccess.Analyze for
// the workload's module, medians over n calls each.
func coreLayers(layers map[string]metric, mod *kir.Module, ranks, n int) {
	// Both calls already succeeded on this module during set-up, and a
	// no-op body cannot fail, so only their time is of interest here.
	noop := func(*core.Session) error { return nil }
	layers["core.empty_run_ms"] = metric{1e3 * medianOf(n, func() {
		_, _ = core.Run(core.Config{Flavor: core.MUSTCuSan, Ranks: ranks, Module: mod}, noop)
	}), "ms"}
	layers["kaccess.analyze_us"] = metric{1e6 * medianOf(n, func() {
		_, _ = kaccess.Analyze(mod)
	}), "us"}
}

// emit adds the probe's metrics to layers.
func (p *layerProbe) emit(layers map[string]metric) {
	for i, name := range counterNames {
		unit := "count"
		if name == "tsan.shadow_bytes" || name == "cusan.read_bytes" ||
			name == "cusan.write_bytes" || name == "mpi.bytes_sent" {
			unit = "B"
		}
		layers[name] = metric{float64(p.ctr[i]), unit}
	}
	// Indexes 0 and 1 are tsan.engine_granules and tsan.engine_fast_granules.
	layers["tsan.fast_share"] = metric{ratio(float64(p.ctr[1]), float64(p.ctr[0])), "ratio"}
	layers["trace.events"] = metric{float64(p.traceEvents), "count"}
	layers["trace.bytes"] = metric{float64(p.traceBytes), "B"}
	layers["trace.decode_s"] = metric{p.decodeS, "s"}
	layers["checker.replay_s"] = metric{p.replayS, "s"}
	layers["mpi.wait_s"] = metric{p.waitS, "s"}
	layers["kinterp.launch_s"] = metric{p.launchS, "s"}
	layers["kinterp.launches"] = metric{float64(p.launches), "count"}
	layers["kinterp.threads"] = metric{float64(p.threads), "count"}
	plain, tapped := median(p.plain), median(p.tapped)
	layers["trace.record_overhead_x"] = metric{ratio(tapped, plain), "x"}
	layers["bench.trace_overhead_s"] = metric{tapped - plain, "s"}
	drift := 0
	for _, r := range p.resids {
		if math.Float64bits(r) != math.Float64bits(p.resids[0]) {
			drift++
		}
	}
	layers["kinterp.result_drift"] = metric{float64(drift), "count"}
}
