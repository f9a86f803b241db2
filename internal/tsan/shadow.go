package tsan

import "cusango/internal/vclock"

// Shadow memory layout.
//
// Application memory is divided into 8-byte granules. Each granule owns K
// shadow cells; a cell packs one recorded access into a single uint64
// (the TSan shadow-word discipline — conflict screening compares whole
// packed words before any vector-clock math):
//
//	bits 63..52  fiber id   (12 bits, up to 4095 fibers)
//	bits 51..12  epoch      (40 bits)
//	bit  11      write flag
//	bits  7..0   byte mask  (which bytes of the granule were touched:
//	             access size and offset in one field)
//
// A zero word means "empty cell" — fiber 0 (the host) starts at epoch 1,
// so no real access encodes to zero.
//
// Each cell additionally records its access site as a 32-bit index into
// the sanitizer's interned site table (see internInfo), so one shadow
// slot costs 12 bytes: the packed word plus the site id. Storing an
// index instead of an *AccessInfo pointer keeps the hot store free of
// GC write barriers and shrinks the shadow by a quarter.
//
// Granules are grouped into pages of 4096 granules (32 KiB of
// application memory) allocated on demand from a chunked arena. Pages
// are plane-split (structure of arrays): plane i holds slot i of every
// granule contiguously, so the batched engine's screening loop streams
// through plane 0 sequentially — 8 granules per cache line — instead of
// striding over interleaved slots.

const (
	granuleShift = 3
	granuleBytes = 1 << granuleShift

	pageGranuleShift = 12
	pageGranules     = 1 << pageGranuleShift
	pageGranuleMask  = pageGranules - 1

	maxCells   = 8
	maxFiberID = (1 << 12) - 1
	maxEpoch   = (1 << 40) - 1

	fullMask uint8 = 0xFF

	// screenMask selects the fiber-id and write-flag fields of a packed
	// cell: c&screenMask == newWord&screenMask is the one-compare
	// screen for "same execution context, same access kind" that the
	// batched engine runs before touching any vector clock.
	screenMask uint64 = uint64(maxFiberID)<<52 | 1<<11
)

func encodeCell(fiber int, ep vclock.Epoch, write bool, mask uint8) uint64 {
	w := uint64(0)
	if write {
		w = 1
	}
	return uint64(fiber)<<52 | (uint64(ep)&maxEpoch)<<12 | w<<11 | uint64(mask)
}

func decodeCell(c uint64) (fiber int, ep vclock.Epoch, write bool, mask uint8) {
	return int(c >> 52), vclock.Epoch(c >> 12 & maxEpoch), c>>11&1 == 1, uint8(c)
}

// partialMask computes the byte mask of the intersection of granule
// [gBase, gBase+8) with the accessed range [start, end).
func partialMask(gBase, start, end uint64) uint8 {
	lo := uint64(0)
	if start > gBase {
		lo = start - gBase
	}
	hi := uint64(granuleBytes)
	if end < gBase+granuleBytes {
		hi = end - gBase
	}
	var m uint8
	for i := lo; i < hi; i++ {
		m |= 1 << i
	}
	return m
}

// shadowPage is one 32-KiB window of shadow state, plane-split by slot:
// cells[i][gi] and infos[i][gi] are slot i of granule gi.
type shadowPage struct {
	cells [][]uint64
	infos [][]uint32
	// aux counts non-empty cells in planes >= 1. Cells only transition
	// empty -> non-empty (stores never write zero), so aux == 0 proves
	// every secondary plane of the page is still all-zero and the
	// streaming screen loop can skip loading them entirely — the common
	// case when one fiber at a time owns a buffer.
	aux int32
}

// shadowMap is the page index: a single map with a one-entry
// most-recently-used cache, plus the optional FIFO page budget
// (MaxShadowPages graceful degradation).
type shadowMap struct {
	k     int
	pages map[uint64]*shadowPage
	arena pageArena
	// one-entry cache: range annotations walk granules sequentially.
	lastIdx  uint64
	lastPage *shadowPage

	// Budget (graceful degradation): when maxPages > 0 and a fresh page
	// would exceed it, the oldest page by creation order is dropped.
	// Losing shadow state can only hide races (false negatives), never
	// invent them — an empty cell looks like "never accessed" — so a
	// budgeted run stays sound for the cases it does report. Shed pages
	// are counted and surfaced through Stats; their planes return to
	// the arena free list and are reused (zeroed) by later pages.
	maxPages int
	order    []uint64 // page indices in creation order (FIFO)
	shed     int64
}

func (m *shadowMap) init(k, maxPages int) {
	m.k = k
	m.maxPages = maxPages
	m.lastIdx = ^uint64(0)
	m.pages = make(map[uint64]*shadowPage)
}

// page resolves (allocating on demand) the shadow page with the given
// page index.
func (m *shadowMap) page(idx uint64) *shadowPage {
	if idx == m.lastIdx {
		return m.lastPage
	}
	p, ok := m.pages[idx]
	if !ok {
		p = m.arena.newPage(m.k)
		m.pages[idx] = p
		if m.maxPages > 0 {
			m.order = append(m.order, idx)
			for len(m.pages) > m.maxPages {
				victim := m.order[0]
				m.order = m.order[1:]
				m.arena.free(m.pages[victim])
				delete(m.pages, victim)
				if victim == m.lastIdx {
					m.lastIdx = ^uint64(0)
					m.lastPage = nil
				}
				m.shed++
			}
		}
	}
	m.lastIdx = idx
	m.lastPage = p
	return p
}

// bytes estimates the shadow footprint: 12 bytes per cell slot
// (packed word + interned site index).
func (m *shadowMap) bytes() int64 {
	return int64(len(m.pages)) * pageGranules * int64(m.k) * 12
}
