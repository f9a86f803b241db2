package tsan

import (
	"cusango/internal/memspace"
	"cusango/internal/vclock"
)

// The batched shadow-range engine (the default, Config.Engine ==
// EngineBatched).
//
// The paper's headline overhead result is that CuSan's cost tracks the
// bytes annotated to TSan (§V-B, Fig. 12), and the annotation hot path
// is exactly this walk. The reference implementation (accessRangeSlow)
// resolves a shadow page per granule and recomputes the partial-mask
// condition on every step. The batched engine instead:
//
//  1. resolves each shadow page once and processes every granule it
//     covers in a tight loop over the page's plane-0 slab (8 packed
//     words per cache line);
//  2. clips the interior (full-mask) granule range once per page span —
//     only the first and last granule of a range can be partial — so
//     the inner loop carries no per-granule mask logic;
//  3. screens each interior granule with packed-word compares:
//     c & screenMask == screen means "same fiber, same access kind";
//     a cell holding the fiber's own access of the other kind, or
//     another fiber's access ordered before the fiber's clock, is
//     settled without checkGranule too (whenever the secondary planes
//     are empty, and over both planes when K == 2); if the word is
//     bit-identical to the word we would store (same epoch, full mask)
//     with the same interned site, the access is a provable
//     re-annotation and nothing is stored at all;
//  4. consults a per-fiber same-epoch range cache: a fiber
//     re-annotating the identical range at its current epoch with the
//     same access kind and site, before any other walk touched the
//     shadow, is a provable no-op and returns immediately (the
//     iterative-stencil pattern the mini-apps produce).
//
// Both engines funnel every granule holding a concurrent access through
// checkGranule, and the screens pick slots by checkGranule's rules, so
// race reports, slot selection, and eviction order are identical; the
// differential tests in differential_test.go and the directed slot-rule
// tests in screen_test.go pin that equivalence.

// spanCtr accumulates engine counters locally during a walk; totals are
// folded into Stats once per range (or per batch worker), keeping the
// inner loop free of field stores.
type spanCtr struct {
	granules int64
	fast     int64
	same     int64
}

// accessRangeBatched records an access to [a, a+n) page span by page
// span.
func (s *Sanitizer) accessRangeBatched(a memspace.Addr, n int64, write bool, info *AccessInfo) {
	f := s.cur
	ep := s.epoch()
	start := uint64(a)
	end := start + uint64(n)

	if !s.cfg.DisableRangeCache {
		e := &s.rangeCache[f.id]
		if e.valid && e.seq == s.accessSeq && e.start == start && e.end == end &&
			e.write == write && e.ep == ep && e.info == info {
			s.stats.RangeCacheHits++
			return
		}
		s.stats.RangeCacheMisses++
	}

	infoID := s.internInfo(info)
	g := start >> granuleShift
	gLast := (end - 1) >> granuleShift
	newWord := encodeCell(f.id, ep, write, fullMask)
	var ctr spanCtr
	var pages int64

	for g <= gLast {
		pageIdx := g >> pageGranuleShift
		p := s.shadow.page(pageIdx)
		pages++
		gStop := gLast
		if pageEnd := pageIdx<<pageGranuleShift + pageGranuleMask; pageEnd < gStop {
			gStop = pageEnd
		}
		s.walkSpan(p, g, gStop, start, end, write, f, ep, infoID, newWord, nil, &ctr)
		g = gStop + 1
	}

	s.stats.EnginePages += pages
	s.stats.EngineGranules += ctr.granules
	s.stats.EngineFastGranules += ctr.fast
	s.stats.EngineSameGranules += ctr.same
	s.accessSeq++
	if !s.cfg.DisableRangeCache {
		s.rangeCache[f.id] = rangeCacheEntry{
			start: start, end: end, ep: ep, info: info, write: write,
			valid: true, seq: s.accessSeq,
		}
	}
}

// walkSpan processes granules [g, gStop] of page p for an access to
// [start, end). It is the one shared inner loop: the sequential batched
// engine calls it with sink == nil (races reported inline) and
// AnnotateBatch workers call it with a per-worker candidate sink
// (shard.go). The interior full-mask sub-range is clipped once, then
// streamed through the packed-word screen.
func (s *Sanitizer) walkSpan(p *shadowPage, g, gStop, start, end uint64,
	write bool, f *Fiber, ep vclock.Epoch, infoID uint32, newWord uint64,
	sink *[]raceCand, ctr *spanCtr) {
	// Interior granules of the whole range: full byte mask.
	gIntLo := (start + granuleBytes - 1) >> granuleShift
	gIntHi := end>>granuleShift - 1
	if end < granuleBytes {
		gIntLo, gIntHi = 1, 0 // no interior
	}

	// Leading partial granules on this page.
	for ; g <= gStop && g < gIntLo; g++ {
		gBase := g << granuleShift
		s.checkGranule(p, int(g&pageGranuleMask), g, partialMask(gBase, start, end),
			write, f, ep, infoID, memspace.Addr(gBase), sink)
		ctr.granules++
	}

	// Interior granules: the packed-word screen settles every granule
	// that holds no concurrent access from another fiber; a second
	// compare detects the exact same shadow word (same epoch, same site)
	// and skips the store too.
	intStop := gStop
	if gIntHi < intStop {
		intStop = gIntHi
	}
	if g <= intStop {
		n := int(intStop-g) + 1
		ctr.granules += int64(n)
		k := s.cfg.CellsPerGranule
		screen := newWord & screenMask
		giLo := int(g & pageGranuleMask)
		// Equal-length subslices let the compiler drop the bounds checks
		// from the streaming loop.
		c0 := p.cells[0][giLo : giLo+n]
		f0 := p.infos[0][giLo : giLo+n]
		switch {
		case k == 1 || p.aux == 0:
			// Either there are no secondary planes or (aux == 0) they are
			// provably all-zero, so screening needs only plane 0. Any
			// other cell goes to settleOnePlane, which populates at most
			// the current granule's plane 1, so granules still ahead of
			// the loop keep their secondary cells empty.
			for j := 0; j < n; j++ {
				c := c0[j]
				if c == newWord && f0[j] == infoID {
					ctr.same++
					continue
				}
				if c == 0 || c&screenMask == screen {
					c0[j] = newWord
					f0[j] = infoID
					ctr.fast++
					continue
				}
				s.settleOnePlane(p, giLo+j, g+uint64(j), write, f, ep, infoID, newWord, sink, ctr)
			}
		case k == 2:
			s.screenTwoPlanes(p, giLo, n, g, write, f, ep, infoID, newWord, sink, ctr)
		default:
			for j := 0; j < n; j++ {
				c := c0[j]
				if c == 0 || c&screenMask == screen {
					clean := true
					for i := 1; i < k; i++ {
						if p.cells[i][giLo+j] != 0 {
							clean = false
							break
						}
					}
					if clean {
						if c == newWord && f0[j] == infoID {
							ctr.same++
						} else {
							c0[j] = newWord
							f0[j] = infoID
							ctr.fast++
						}
						continue
					}
				}
				s.checkGranule(p, giLo+j, g+uint64(j), fullMask, write, f, ep,
					infoID, memspace.Addr((g+uint64(j))<<granuleShift), sink)
			}
		}
		g += uint64(n)
	}

	// Trailing partial granules on this page.
	for ; g <= gStop; g++ {
		gBase := g << granuleShift
		s.checkGranule(p, int(g&pageGranuleMask), g, partialMask(gBase, start, end),
			write, f, ep, infoID, memspace.Addr(gBase), sink)
		ctr.granules++
	}
}

// Cell classes of the two-plane screen, in checkGranule's terms.
const (
	cellEmpty      = iota // zero word
	cellOwnSame           // the current fiber, same access kind
	cellOwnOther          // the current fiber, other access kind
	cellOrdered           // another fiber, happens-before the current epoch
	cellConcurrent        // another fiber, not ordered: needs checkGranule
)

// classifyCell sorts one packed cell for the two-plane screen. vc is the
// current fiber's clock components (Clock.Epochs), own its fiber id and
// screen the id-and-kind bits of the word being stored.
func classifyCell(c, screen, own uint64, vc []vclock.Epoch) uint8 {
	if c == 0 {
		return cellEmpty
	}
	id := c >> 52
	if id == own {
		if c&screenMask == screen {
			return cellOwnSame
		}
		return cellOwnOther
	}
	if id < uint64(len(vc)) && uint64(vc[id]) >= c>>12&maxEpoch {
		return cellOrdered
	}
	return cellConcurrent
}

// screenTwoPlanes is the interior loop for CellsPerGranule == 2. A
// granule goes to checkGranule only if one of its two cells is a
// concurrent access from another fiber. Every other granule is settled
// here: its cells are empty, the current fiber's own (either kind, where
// program order rules out a race), or another fiber's access that is
// already ordered before the current epoch (FastTrack's observation that
// almost all accesses are same-thread or ordered). The ordered test reads
// a snapshot of the fiber's clock taken once for the span; the clock
// cannot change during a walk. The slot is then picked exactly as
// checkGranule picks it: the last own cell of the same kind, else the
// first empty cell, else the first ordered cell, else rotate to g % 2.
func (s *Sanitizer) screenTwoPlanes(p *shadowPage, giLo, n int, g uint64,
	write bool, f *Fiber, ep vclock.Epoch, infoID uint32, newWord uint64,
	sink *[]raceCand, ctr *spanCtr) {
	screen := newWord & screenMask
	own := uint64(f.id)
	vc := f.clock.Epochs()
	c0 := p.cells[0][giLo : giLo+n]
	f0 := p.infos[0][giLo : giLo+n]
	c1 := p.cells[1][giLo : giLo+n]
	f1 := p.infos[1][giLo : giLo+n]
	var fast, same int64
	var aux int32
	for j := range c0 {
		a, b := c0[j], c1[j]
		slot := 0
		switch {
		case b == 0 && (a == 0 || a&screenMask == screen):
			// Plane 1 empty, plane 0 empty or own same kind.
		case a != 0 && b != 0 && a>>52 == own && b>>52 == own:
			// Both cells own (the stencil steady state): the same-kind
			// cell wins, plane 1 first; with neither, rotate.
			if b&screenMask == screen {
				slot = 1
			} else if a&screenMask != screen {
				slot = int((g + uint64(j)) & 1)
			}
		default:
			ka := classifyCell(a, screen, own, vc)
			kb := classifyCell(b, screen, own, vc)
			switch {
			case ka == cellConcurrent || kb == cellConcurrent:
				s.checkGranule(p, giLo+j, g+uint64(j), fullMask, write, f, ep,
					infoID, memspace.Addr((g+uint64(j))<<granuleShift), sink)
				continue
			case kb == cellOwnSame:
				slot = 1
			case ka == cellOwnSame || ka == cellEmpty:
			case kb == cellEmpty:
				slot = 1
			case ka == cellOrdered:
			case kb == cellOrdered:
				slot = 1
			}
			// Two own cells of the other kind were handled above.
		}
		if slot == 1 {
			if b == newWord && f1[j] == infoID {
				same++
				continue
			}
			if b == 0 {
				aux++
			}
			c1[j] = newWord
			f1[j] = infoID
		} else {
			if a == newWord && f0[j] == infoID {
				same++
				continue
			}
			c0[j] = newWord
			f0[j] = infoID
		}
		fast++
	}
	ctr.fast += fast
	ctr.same += same
	p.aux += aux
}

// settleOnePlane settles interior granule gi of a page whose secondary
// planes are empty (or absent) when its plane-0 cell c holds neither
// nothing nor this fiber's access of the same kind. An own cell of the
// other kind or an ordered cell is replaced when there is one plane
// (rotate or ordered reuse) and otherwise kept beside the new access in
// the empty plane-1 cell, exactly as checkGranule would place it; only a
// concurrent cell needs checkGranule.
func (s *Sanitizer) settleOnePlane(p *shadowPage, gi int, g uint64, write bool,
	f *Fiber, ep vclock.Epoch, infoID uint32, newWord uint64, sink *[]raceCand,
	ctr *spanCtr) {
	c := p.cells[0][gi]
	if classifyCell(c, newWord&screenMask, uint64(f.id), f.clock.Epochs()) == cellConcurrent {
		s.checkGranule(p, gi, g, fullMask, write, f, ep, infoID,
			memspace.Addr(g<<granuleShift), sink)
		return
	}
	slot := 0
	if s.cfg.CellsPerGranule > 1 {
		slot = 1
		p.aux++
	}
	p.cells[slot][gi] = newWord
	p.infos[slot][gi] = infoID
	ctr.fast++
}
