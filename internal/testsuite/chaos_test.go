package testsuite

import (
	"testing"

	"cusango/internal/faults"
	"cusango/internal/tsan"
)

var bothEngines = []tsan.Engine{tsan.EngineBatched, tsan.EngineSlow}

// TestChaosSoak is the acceptance soak: >= 25 seeded fault schedules x
// both shadow engines over the whole classified suite. Correct cases
// must never produce a race report under injected faults, every error
// must be attributable to an injected fault (directly or as abort
// collateral), and the checker must never crash.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is the long acceptance run")
	}
	seeds := make([]uint64, 25)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	rep := ChaosSoak(seeds, 0.05, bothEngines)
	t.Log(rep)
	for _, v := range rep.Violations {
		t.Error(v)
	}
	if rep.Faulted == 0 {
		t.Fatal("no schedule fired a fault; the soak is vacuous")
	}
	if rep.Degraded > 0 {
		// Not a violation (contained crashes are the design), but worth
		// surfacing: today's fault set should not crash the checker.
		t.Logf("note: %d contained checker crash(es)", rep.Degraded)
	}
}

// TestChaosReproduction: every fault observed in a sampled soak slice
// replays exactly from its (seed, site, occurrence, rank) triple.
func TestChaosReproduction(t *testing.T) {
	cases := Cases()
	reproduced := 0
	for seed := uint64(1); seed <= 6 && reproduced < 12; seed++ {
		plan := faults.Seeded(seed, 0.08)
		for _, c := range cases {
			if reproduced >= 12 {
				break
			}
			v := RunChaosCase(c, plan, tsan.EngineBatched)
			for _, f := range v.Injected {
				if err := ReproduceFault(c, f, tsan.EngineBatched); err != nil {
					t.Errorf("seed %d: %v", seed, err)
				}
				reproduced++
				break // one fault per (case, seed) keeps the test fast
			}
		}
	}
	if reproduced == 0 {
		t.Fatal("no faults observed to reproduce; test is vacuous")
	}
}

// TestChaosDeterministic: the same (case, plan, engine) run repeatedly
// fires the identical fault sequence and yields the identical verdict,
// including the attributed application fault. The extra input is a
// schedule where rank 0 aborts in a Send whose error the application
// ignores: it pins that the dead rank does not go on sending, which
// would race its peer's receive against the world abort.
func TestChaosDeterministic(t *testing.T) {
	type input struct {
		c    Case
		plan *faults.Plan
	}
	var inputs []input
	for _, c := range Cases()[:8] {
		inputs = append(inputs, input{c, faults.Seeded(7, 0.1)})
	}
	inputs = append(inputs, input{findCase(t, "must/send_count_exceeds_allocation"), faults.Seeded(5, 0.05)})
	const reruns = 4
	for _, in := range inputs {
		a := RunChaosCase(in.c, in.plan, tsan.EngineBatched)
		for range reruns {
			b := RunChaosCase(in.c, in.plan, tsan.EngineBatched)
			if len(a.Injected) != len(b.Injected) || a.Races != b.Races || a.OK() != b.OK() ||
				faultLabel(a.AppFault) != faultLabel(b.AppFault) {
				t.Fatalf("%s: nondeterministic chaos run: %v (fault %q) vs %v (fault %q)",
					in.c.Name, a, faultLabel(a.AppFault), b, faultLabel(b.AppFault))
			}
			for i := range a.Injected {
				if a.Injected[i].Spec() != b.Injected[i].Spec() {
					t.Fatalf("%s: fault %d differs: %s vs %s",
						in.c.Name, i, a.Injected[i].Spec(), b.Injected[i].Spec())
				}
			}
		}
	}
}

// TestChaosNilPlanMatchesBaseline: a nil plan is a plain suite run —
// every case classifies exactly as the baseline expects.
func TestChaosNilPlanMatchesBaseline(t *testing.T) {
	for _, c := range Cases() {
		v := RunChaosCase(c, nil, tsan.EngineBatched)
		if !v.OK() {
			t.Errorf("nil-plan chaos run violated: %v", v)
		}
		if len(v.Injected) != 0 {
			t.Errorf("%s: nil plan injected %v", c.Name, v.Injected)
		}
		if (v.Races > 0) != c.ExpectRace {
			t.Errorf("%s: nil-plan races=%d, expect race=%v", c.Name, v.Races, c.ExpectRace)
		}
	}
}
