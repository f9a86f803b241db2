package tsan

// Hot-path memory discipline: everything the detector allocates at
// steady state comes out of chunked arenas with free lists, so the
// clean access path — annotate a range over warm shadow, release and
// acquire existing sync vars, switch fibers — performs zero heap
// allocations (pinned by TestCleanPathZeroAllocs in alloc_test.go).
//
// Three allocation classes are covered:
//
//   - shadow pages: pageArena carves plane slabs (cells + site ids)
//     out of multi-page chunks and recycles the planes of pages shed
//     by the MaxShadowPages budget, zeroing them on reuse;
//   - vector clocks: fibers and sync vars draw their clocks from a
//     vclock.Arena whose capacity hint tracks the fiber count;
//   - detector objects: Fiber and syncVar structs are carved from
//     chunked slabs (fiberArena / svArena in tsan.go) instead of
//     being allocated one object at a time.
//
// Arenas are owned by one Sanitizer and die with it — the per-run
// reset. Nothing is returned to the Go heap early, which is safe
// because a run's shadow state must stay live until the run's reports
// have been rendered.

// arenaChunkPages is how many pages' worth of planes one chunk holds.
const arenaChunkPages = 4

// pageArena allocates shadowPage objects and their plane slabs.
type pageArena struct {
	words    []uint64 // current cell-plane chunk tail
	ids      []uint32 // current info-plane chunk tail
	pages    []shadowPage
	freeList []*shadowPage // recycled pages (planes zeroed on reuse)
}

// newPage returns a zeroed k-plane page, reusing a recycled page's
// storage when available.
func (a *pageArena) newPage(k int) *shadowPage {
	if n := len(a.freeList); n > 0 {
		p := a.freeList[n-1]
		a.freeList = a.freeList[:n-1]
		for _, pl := range p.cells {
			clear(pl)
		}
		for _, pl := range p.infos {
			clear(pl)
		}
		p.aux = 0
		return p
	}
	if len(a.pages) == 0 {
		a.pages = make([]shadowPage, arenaChunkPages)
	}
	p := &a.pages[0]
	a.pages = a.pages[1:]
	p.cells = make([][]uint64, k)
	p.infos = make([][]uint32, k)
	for i := 0; i < k; i++ {
		if len(a.words) < pageGranules {
			a.words = make([]uint64, arenaChunkPages*k*pageGranules)
		}
		p.cells[i] = a.words[:pageGranules:pageGranules]
		a.words = a.words[pageGranules:]
		if len(a.ids) < pageGranules {
			a.ids = make([]uint32, arenaChunkPages*k*pageGranules)
		}
		p.infos[i] = a.ids[:pageGranules:pageGranules]
		a.ids = a.ids[pageGranules:]
	}
	return p
}

// free returns a shed page's storage to the free list for reuse.
func (a *pageArena) free(p *shadowPage) {
	a.freeList = append(a.freeList, p)
}
