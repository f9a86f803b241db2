package tsan

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cusango/internal/memspace"
)

// Differential engine testing (the keep-a-second-implementation
// discipline): the batched page-walking engine and the granule-at-a-
// time reference walk are driven with identical access sequences and
// must agree on every race report AND on the complete shadow
// post-state. 600 randomized programs with fixed seeds.

// cellState is one non-empty shadow slot: packed word + site pointer.
type cellState struct {
	cell uint64
	info *AccessInfo
}

// shadowCells flattens the live shadow memory into slot index -> state,
// resolving interned site ids back to pointers so the comparison is
// representation-independent.
func shadowCells(s *Sanitizer) map[uint64]cellState {
	out := make(map[uint64]cellState)
	k := uint64(s.shadow.k)
	for idx, p := range s.shadow.pages {
		for slot := uint64(0); slot < k; slot++ {
			for gi, c := range p.cells[slot] {
				if c != 0 {
					out[idx*pageGranules*k+uint64(gi)*k+slot] =
						cellState{cell: c, info: s.infoTab[p.infos[slot][gi]]}
				}
			}
		}
	}
	return out
}

// reportKey is the comparable projection of one race report.
type reportKey struct {
	addr                memspace.Addr
	curFiber, prevFiber int
	curWrite, prevWrite bool
	curInfo, prevInfo   *AccessInfo
}

func reportKeys(s *Sanitizer) []reportKey {
	var out []reportKey
	for _, r := range s.Reports() {
		out = append(out, reportKey{
			addr:     r.Addr,
			curFiber: r.Current.Fiber.ID(), prevFiber: r.Previous.Fiber.ID(),
			curWrite: r.Current.Write, prevWrite: r.Previous.Write,
			curInfo: r.Current.Info, prevInfo: r.Previous.Info,
		})
	}
	return out
}

// twin drives the two engines in lockstep.
type twin struct {
	batched, slow *Sanitizer
	bf, sf        []*Fiber
}

func newTwin(cells int) *twin {
	tw := &twin{
		batched: New(Config{CellsPerGranule: cells}),
		slow:    New(Config{CellsPerGranule: cells, Engine: EngineSlow}),
	}
	tw.bf = []*Fiber{tw.batched.HostFiber()}
	tw.sf = []*Fiber{tw.slow.HostFiber()}
	return tw
}

func (tw *twin) createFiber(name string) {
	tw.bf = append(tw.bf, tw.batched.CreateFiber(name))
	tw.sf = append(tw.sf, tw.slow.CreateFiber(name))
}

func (tw *twin) both(f func(s *Sanitizer, fibers []*Fiber)) {
	f(tw.batched, tw.bf)
	f(tw.slow, tw.sf)
}

func TestDifferentialEnginesRandomized(t *testing.T) {
	const cases = 600
	// Shared access-site pool: pointer identity must match across both
	// engines for report and shadow-state comparison.
	var infos []*AccessInfo
	for i := 0; i < 6; i++ {
		infos = append(infos, &AccessInfo{Site: fmt.Sprintf("site%d", i), Object: "buf"})
	}
	pageBytes := uint64(pageGranules * granuleBytes)
	// Two contended windows: one small, one straddling a page boundary.
	windows := [][2]uint64{
		{uint64(base), 768},
		{uint64(base) + pageBytes - 384, 768},
	}

	for seed := 0; seed < cases; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			cells := []int{1, 2, 4}[rng.Intn(3)]
			tw := newTwin(cells)
			for i := 0; i < 1+rng.Intn(3); i++ {
				tw.createFiber(fmt.Sprintf("fiber %d", i))
			}
			ignoreDepth := 0
			nops := 30 + rng.Intn(70)
			for op := 0; op < nops; op++ {
				switch rng.Intn(12) {
				case 0, 1: // fiber switch, occasionally synchronizing
					i := rng.Intn(len(tw.bf))
					if rng.Intn(4) == 0 {
						tw.batched.SwitchFiberSync(tw.bf[i])
						tw.slow.SwitchFiberSync(tw.sf[i])
					} else {
						tw.batched.SwitchFiber(tw.bf[i])
						tw.slow.SwitchFiber(tw.sf[i])
					}
				case 2: // release
					key := MakeKey(1, uint64(rng.Intn(4)))
					tw.both(func(s *Sanitizer, _ []*Fiber) { s.HappensBefore(key) })
				case 3: // acquire
					key := MakeKey(1, uint64(rng.Intn(4)))
					tw.both(func(s *Sanitizer, _ []*Fiber) { s.HappensAfter(key) })
				case 4: // scalar access
					w := windows[rng.Intn(len(windows))]
					a := memspace.Addr(w[0] + uint64(rng.Intn(int(w[1]))))
					size := []int{1, 2, 4, 8}[rng.Intn(4)]
					info := infos[rng.Intn(len(infos))]
					if rng.Intn(2) == 0 {
						tw.both(func(s *Sanitizer, _ []*Fiber) { s.Write(a, size, info) })
					} else {
						tw.both(func(s *Sanitizer, _ []*Fiber) { s.Read(a, size, info) })
					}
				case 5: // ignore-region toggle (kept balanced at the end)
					if ignoreDepth > 0 && rng.Intn(2) == 0 {
						tw.both(func(s *Sanitizer, _ []*Fiber) { s.IgnoreEnd() })
						ignoreDepth--
					} else {
						tw.both(func(s *Sanitizer, _ []*Fiber) { s.IgnoreBegin() })
						ignoreDepth++
					}
				default: // range access, sometimes repeated (range-cache path)
					w := windows[rng.Intn(len(windows))]
					a := memspace.Addr(w[0] + uint64(rng.Intn(int(w[1]))))
					n := int64(1 + rng.Intn(int(w[1])))
					if rng.Intn(40) == 0 {
						n = 64 << 10 // occasional large page-spanning range
					}
					info := infos[rng.Intn(len(infos))]
					write := rng.Intn(2) == 0
					repeats := 1 + rng.Intn(2)
					for r := 0; r < repeats; r++ {
						if write {
							tw.both(func(s *Sanitizer, _ []*Fiber) { s.WriteRange(a, n, info) })
						} else {
							tw.both(func(s *Sanitizer, _ []*Fiber) { s.ReadRange(a, n, info) })
						}
					}
				}
			}
			for ; ignoreDepth > 0; ignoreDepth-- {
				tw.both(func(s *Sanitizer, _ []*Fiber) { s.IgnoreEnd() })
			}

			if b, sl := tw.batched.RaceCount(), tw.slow.RaceCount(); b != sl {
				t.Fatalf("race counts diverge: batched=%d slow=%d", b, sl)
			}
			if b, sl := reportKeys(tw.batched), reportKeys(tw.slow); !reflect.DeepEqual(b, sl) {
				t.Fatalf("reports diverge:\nbatched: %+v\nslow:    %+v", b, sl)
			}
			bCells, sCells := shadowCells(tw.batched), shadowCells(tw.slow)
			if len(bCells) != len(sCells) {
				t.Fatalf("shadow population diverges: batched=%d slow=%d cells",
					len(bCells), len(sCells))
			}
			for slot, bc := range bCells {
				sc, ok := sCells[slot]
				if !ok {
					t.Fatalf("slot %d populated only under batched engine (%x)", slot, bc.cell)
				}
				if bc != sc {
					t.Fatalf("slot %d diverges: batched={%x %v} slow={%x %v}",
						slot, bc.cell, bc.info, sc.cell, sc.info)
				}
			}
		})
	}
}

// TestDifferentialDirectedPatterns replays the access patterns the
// mini-apps actually produce (stencil re-annotation, halo exchange,
// boundary-only tracking) through both engines.
func TestDifferentialDirectedPatterns(t *testing.T) {
	kernelW := &AccessInfo{Site: "kernel jacobi_step", Object: "arg 0"}
	kernelR := &AccessInfo{Site: "kernel jacobi_step", Object: "arg 1"}
	haloW := &AccessInfo{Site: "MPI_Irecv", Object: "halo"}
	const domain = 96 << 10

	run := func(s *Sanitizer) {
		stream := s.CreateFiber("stream")
		host := s.HostFiber()
		arc := MakeKey(1, 0)
		for iter := 0; iter < 25; iter++ {
			// Kernel launch protocol: sync switch in, annotate args
			// (read then write, same epoch — stencil pattern), release,
			// switch out.
			s.SwitchFiberSync(stream)
			s.ReadRange(base, domain, kernelR)
			s.ReadRange(base, domain, kernelR) // re-annotation: cache-hit under batched
			s.WriteRange(base+domain, domain, kernelW)
			s.HappensBefore(arc)
			s.SwitchFiber(host)
			s.HappensAfter(arc)
			// Host-side halo write into the first granules (partial edges).
			s.WriteRange(base+3, 61, haloW)
		}
	}
	b := New(Config{})
	sl := New(Config{Engine: EngineSlow})
	run(b)
	run(sl)
	if b.RaceCount() != sl.RaceCount() {
		t.Fatalf("race counts diverge: batched=%d slow=%d", b.RaceCount(), sl.RaceCount())
	}
	if !reflect.DeepEqual(shadowCells(b), shadowCells(sl)) {
		t.Fatal("shadow post-state diverges on the stencil pattern")
	}
	if hits := b.Stats().RangeCacheHits; hits != 25 {
		t.Errorf("stencil re-annotation cache hits = %d, want 25", hits)
	}
}
