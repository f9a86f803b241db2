package tsan

import (
	"fmt"
	"reflect"
	"testing"

	"cusango/internal/memspace"
)

// Directed tests for the two-plane screen (screenTwoPlanes): each slot
// rule of checkGranule is driven once through both engines, and the
// reports and shadow post-state must agree with EngineSlow. The final
// access of every case covers screenGranules interior granules, so the
// fast-granule delta shows whether the screen or checkGranule settled
// them.

const screenGranules = 64

func (tw *twin) switchTo(i int, sync bool) {
	tw.both(func(s *Sanitizer, fs []*Fiber) {
		if sync {
			s.SwitchFiberSync(fs[i])
		} else {
			s.SwitchFiber(fs[i])
		}
	})
}

func (tw *twin) access(write bool, info *AccessInfo) {
	tw.both(func(s *Sanitizer, _ []*Fiber) {
		if write {
			s.WriteRange(base, screenGranules*granuleBytes, info)
		} else {
			s.ReadRange(base, screenGranules*granuleBytes, info)
		}
	})
}

func (tw *twin) release() {
	tw.both(func(s *Sanitizer, _ []*Fiber) { s.HappensBefore(MakeKey(3, uint64(s.cur.id))) })
}

// requireSameAsSlow compares race reports and the full shadow
// post-state of the two engines.
func requireSameAsSlow(t *testing.T, tw *twin) {
	t.Helper()
	if b, sl := reportKeys(tw.batched), reportKeys(tw.slow); !reflect.DeepEqual(b, sl) {
		t.Fatalf("reports diverge:\nbatched: %+v\nslow:    %+v", b, sl)
	}
	if b, sl := shadowCells(tw.batched), shadowCells(tw.slow); !reflect.DeepEqual(b, sl) {
		t.Fatalf("shadow post-state diverges:\nbatched: %v\nslow:    %v", b, sl)
	}
}

// slotOf returns the slot of granule gi on the first page holding the
// given fiber's access of the given kind, or -1.
func slotOf(s *Sanitizer, gi int, fiber int, write bool) int {
	p := s.shadow.page(uint64(base) >> granuleShift >> pageGranuleShift)
	for slot := range p.cells {
		c := p.cells[slot][gi]
		if c != 0 && c>>52 == uint64(fiber) && (c>>11&1 == 1) == write {
			return slot
		}
	}
	return -1
}

func TestScreenSlotRules(t *testing.T) {
	const host, sF, tF = 0, 1, 2
	otherR := &AccessInfo{Site: "kernel T", Object: "read"}
	cases := []struct {
		name string
		// setup leaves the host current with the state under test; the
		// final access is the host's.
		setup     func(tw *twin)
		write     bool
		wantSlot  int   // slot of the host's final access in granule 0 (k == 2)
		wantFast  int64 // fast granules of the final access (k == 2)
		wantRaces int64
	}{
		{
			// [own W, own R]: a read reuses the own read in slot 1.
			name: "own same kind in slot 1",
			setup: func(tw *twin) {
				tw.access(true, hostW)
				tw.access(false, hostR)
				tw.release()
			},
			write: false, wantSlot: 1, wantFast: screenGranules,
		},
		{
			// [ordered S.W, empty]: the empty cell beats the ordered one.
			name: "first empty before ordered",
			setup: func(tw *twin) {
				tw.switchTo(sF, false)
				tw.access(true, devW)
				tw.release()
				tw.switchTo(host, true)
			},
			write: false, wantSlot: 1, wantFast: screenGranules,
		},
		{
			// [ordered S.W, own R]: a write reuses the ordered slot 0.
			name: "ordered reuse in slot 0",
			setup: func(tw *twin) {
				tw.switchTo(sF, false)
				tw.access(true, devW)
				tw.switchTo(host, true)
				tw.access(false, hostR)
				tw.release()
			},
			write: true, wantSlot: 0, wantFast: screenGranules,
		},
		{
			// [own R, ordered S.W]: a write reuses the ordered slot 1.
			name: "ordered reuse in slot 1",
			setup: func(tw *twin) {
				tw.access(false, hostR)
				tw.switchTo(sF, true)
				tw.access(true, devW)
				tw.switchTo(host, true)
			},
			write: true, wantSlot: 1, wantFast: screenGranules,
		},
		{
			// [own W, concurrent S.W]: the concurrent cell sends every
			// granule to checkGranule, which races and keeps slot 0.
			name: "concurrent next to own",
			setup: func(tw *twin) {
				tw.access(true, hostW)
				tw.switchTo(sF, false)
				tw.access(true, devW)
				tw.switchTo(host, false)
			},
			write: true, wantSlot: 0, wantRaces: 2,
		},
		{
			// [concurrent S.R, concurrent T.R]: nothing to reuse, the
			// write rotates to g % 2 and races with both readers.
			name: "rotate over concurrent cells",
			setup: func(tw *twin) {
				tw.switchTo(sF, false)
				tw.access(false, devR)
				tw.switchTo(tF, false)
				tw.access(false, otherR)
				tw.switchTo(host, false)
			},
			write: true, wantSlot: 0, wantRaces: 2,
		},
	}
	for _, tc := range cases {
		for _, k := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/cells=%d", tc.name, k), func(t *testing.T) {
				tw := newTwin(k)
				tw.createFiber("S")
				tw.createFiber("T")
				tc.setup(tw)
				before := tw.batched.Stats().EngineFastGranules
				info := hostR
				if tc.write {
					info = hostW
				}
				tw.access(tc.write, info)
				requireSameAsSlow(t, tw)
				if k != 2 {
					return
				}
				fast := tw.batched.Stats().EngineFastGranules - before
				if fast != tc.wantFast {
					t.Errorf("fast granules of the final access = %d, want %d", fast, tc.wantFast)
				}
				if got := tw.batched.RaceCount(); got != tc.wantRaces {
					t.Errorf("races = %d, want %d", got, tc.wantRaces)
				}
				if got := slotOf(tw.batched, 0, host, tc.write); got != tc.wantSlot {
					t.Errorf("granule 0: host access in slot %d, want %d", got, tc.wantSlot)
				}
			})
		}
	}
}

// TestScreenRotateOwnCells covers the screen's own rotate rule: both
// cells are the current fiber's, neither of the access kind. checkGranule
// never leaves two own cells of one kind behind, so the state is seeded
// directly into both engines' shadow.
func TestScreenRotateOwnCells(t *testing.T) {
	tw := newTwin(2)
	seed := func(s *Sanitizer) {
		ep := s.epoch()
		id := s.internInfo(hostW)
		p := s.shadow.page(uint64(base) >> granuleShift >> pageGranuleShift)
		for gi := 0; gi < screenGranules; gi++ {
			for slot := 0; slot < 2; slot++ {
				p.cells[slot][gi] = encodeCell(0, ep, true, fullMask)
				p.infos[slot][gi] = id
			}
		}
		p.aux += screenGranules
		s.HappensBefore(MakeKey(3, 0))
	}
	seed(tw.batched)
	seed(tw.slow)
	tw.both(func(s *Sanitizer, _ []*Fiber) { s.ReadRange(base, screenGranules*granuleBytes, hostR) })
	requireSameAsSlow(t, tw)
	if fast := tw.batched.Stats().EngineFastGranules; fast != screenGranules {
		t.Errorf("fast granules = %d, want %d", fast, screenGranules)
	}
	for gi := 0; gi < 4; gi++ {
		if got, want := slotOf(tw.batched, gi, 0, false), gi%2; got != want {
			t.Errorf("granule %d: read rotated to slot %d, want %d", gi, got, want)
		}
	}
}

// stencilStep is one Jacobi-shaped arc: the stream fiber reads (even
// i) or writes (odd i) [base, base+n) and releases; the host acquires
// that, writes the first and last halo bytes of the buffer, and
// releases in turn.
func stencilStep(s *Sanitizer, stream *Fiber, n, halo int64, i int) {
	s.SwitchFiberSync(stream)
	if i%2 == 0 {
		s.ReadRange(base, n, devR)
	} else {
		s.WriteRange(base, n, devW)
	}
	s.HappensBefore(MakeKey(1, 0))
	s.SwitchFiber(s.HostFiber())
	s.HappensAfter(MakeKey(1, 0))
	s.WriteRange(base, halo, hostW)
	s.WriteRange(base+memspace.Addr(n-halo), halo, hostW)
	s.HappensBefore(MakeKey(2, 0))
}

// TestScreenStencilAlternation replays the jacobi shape the screen is
// for (stencilStep over a four-page buffer). Every walked granule holds
// only own or ordered cells, so every one must take the screen; before
// the two-plane screen, all granules after the first read-after-write
// went to checkGranule.
func TestScreenStencilAlternation(t *testing.T) {
	const (
		pages  = 4
		gran   = pages * pageGranules
		bytes  = gran * granuleBytes
		halo   = 512 // bytes per halo row
		iters  = 6
		haloGr = 2 * halo / granuleBytes
	)
	run := func(s *Sanitizer) {
		stream := s.CreateFiber("stream")
		s.WriteRange(base, bytes, hostW)
		s.HappensBefore(MakeKey(2, 0))
		for i := 0; i < iters; i++ {
			stencilStep(s, stream, bytes, halo, i)
		}
	}
	tw := newTwin(2)
	run(tw.batched)
	run(tw.slow)
	requireSameAsSlow(t, tw)
	st := tw.batched.Stats()
	const want = (iters+1)*gran + iters*haloGr
	if st.EngineGranules != want || st.EngineFastGranules != want || st.EngineSameGranules != 0 {
		t.Fatalf("granules/fast/same = %d/%d/%d, want %d/%d/0",
			st.EngineGranules, st.EngineFastGranules, st.EngineSameGranules, want, want)
	}
	if st.RacesReported != 0 {
		t.Fatalf("races = %d, want 0", st.RacesReported)
	}
	if got := tw.batched.ShadowBytes(); got != pages*pageGranules*2*12 {
		t.Fatalf("shadow bytes = %d", got)
	}
}
