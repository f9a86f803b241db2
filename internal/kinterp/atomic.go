package kinterp

import (
	"sync"

	"cusango/internal/memspace"
)

// Deterministic float atomics.
//
// Floating-point addition is not associative, so a reduction through
// OpAtomicAddF (or GlobalAtomicAddF64 in a native kernel) that applied
// its adds in whatever order the pool workers reached them would change
// in the last bits from run to run and with the worker count. Instead a
// launch's threads are cut into a fixed number of contiguous chunks of
// linear thread ids. The size depends only on the thread count, and
// workers take whole chunks. Within a chunk, the adds to one address are
// summed in thread order into a journal; once every worker has finished,
// the per-chunk sums are added to memory in chunk order. The result is a
// pure function of the kernel and its inputs, whatever the worker count.
//
// A native kernel runs once per chunk, so its per-range partial sum is
// the interpreter's per-chunk sum, and the two match bit for bit.
//
// The adds become visible when the launch completes. CUDA gives a load
// of an address other threads of the same launch add to atomically no
// ordering either, and atomic.faddstore returns no value.

// atomicChunks is the number of chunks a launch is cut into. It bounds
// the native calls per launch and leaves enough chunks to balance a
// small worker pool.
const atomicChunks = 16

// chunkSize returns the number of threads per chunk of a launch of
// total threads.
func chunkSize(total int) int {
	return (total + atomicChunks - 1) / atomicChunks
}

// atomicAdd is one journaled per-chunk sum.
type atomicAdd struct {
	chunk int
	addr  memspace.Addr
	b     []byte
	sum   float64
}

// atomicJournal collects one worker's float atomics, in chunk order.
type atomicJournal struct {
	chunk int // the chunk now running
	adds  []atomicAdd
	// idx maps an address to its entry in the current chunk, for chunks
	// that add to more than one address.
	idx map[memspace.Addr]int
	// addFn is add as a func value, bound once per journal so that
	// deferring views can be made without allocating a new closure.
	addFn func(memspace.Addr, []byte, float64)
}

// add sums x into the current chunk's entry for addr.
func (j *atomicJournal) add(addr memspace.Addr, b []byte, x float64) {
	n := len(j.adds)
	if n > 0 && j.adds[n-1].chunk == j.chunk {
		if last := &j.adds[n-1]; last.addr == addr {
			last.sum += x
			return
		}
		if j.idx == nil {
			j.idx = make(map[memspace.Addr]int)
		}
		if len(j.idx) == 0 {
			j.idx[j.adds[n-1].addr] = n - 1
		}
		if i, ok := j.idx[addr]; ok {
			j.adds[i].sum += x
			return
		}
		j.idx[addr] = n
	} else {
		clear(j.idx)
	}
	j.adds = append(j.adds, atomicAdd{chunk: j.chunk, addr: addr, b: b, sum: x})
}

// apply adds the journaled sums to memory in journal order and empties
// the journal.
func (j *atomicJournal) apply() {
	for i := range j.adds {
		a := &j.adds[i]
		pef64(a.b, lef64(a.b)+a.sum)
	}
	j.reset()
}

// reset empties the journal, dropping its references to memory.
func (j *atomicJournal) reset() {
	clear(j.adds)
	j.adds = j.adds[:0]
	clear(j.idx)
}

// chunkRunner runs threads [lo, hi) of a launch for one worker.
type chunkRunner interface {
	runRange(lo, hi int) error
}

// chunkScratch is the per-worker state of one launch. Launches reuse it
// through scratchPool, so the journals keep their capacity and a
// steady-state launch allocates little beyond its workers.
type chunkScratch struct {
	journals []*atomicJournal
	errs     []error
	// The launch being run (see runChunks).
	total, size, chunks, per int
	newRunner                func(j *atomicJournal) chunkRunner
}

var scratchPool = sync.Pool{New: func() any { return new(chunkScratch) }}

// runChunks runs a launch of total threads on up to workers goroutines.
// Each worker gets its own runner from newRunner, then runs its
// contiguous share of whole chunks through it in order. The float
// atomics the runners journal are applied in chunk order after every
// worker is done; a failed launch applies none.
func runChunks(total, workers int, newRunner func(j *atomicJournal) chunkRunner) error {
	sc := scratchPool.Get().(*chunkScratch)
	defer func() {
		clear(sc.errs)
		sc.newRunner = nil
		scratchPool.Put(sc)
	}()
	sc.total, sc.size, sc.newRunner = total, chunkSize(total), newRunner
	sc.chunks = (total + sc.size - 1) / sc.size
	workers = min(workers, sc.chunks)
	sc.per = (sc.chunks + workers - 1) / workers
	for len(sc.journals) < workers {
		j := new(atomicJournal)
		j.addFn = j.add
		sc.journals = append(sc.journals, j)
	}
	sc.errs = append(sc.errs[:0], make([]error, workers)...)
	if workers == 1 {
		sc.run(0)
	} else {
		var wg sync.WaitGroup
		for wi := 0; wi < workers; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				sc.run(wi)
			}(wi)
		}
		wg.Wait()
	}
	journals := sc.journals[:workers]
	for _, err := range sc.errs {
		if err != nil {
			for _, j := range journals {
				j.reset()
			}
			return err
		}
	}
	for _, j := range journals {
		j.apply()
	}
	return nil
}

// run executes worker wi's share of the chunks.
func (sc *chunkScratch) run(wi int) {
	j := sc.journals[wi]
	r := sc.newRunner(j)
	for c := wi * sc.per; c < min((wi+1)*sc.per, sc.chunks); c++ {
		j.chunk = c
		if err := r.runRange(c*sc.size, min((c+1)*sc.size, sc.total)); err != nil {
			sc.errs[wi] = err
			return
		}
	}
}
