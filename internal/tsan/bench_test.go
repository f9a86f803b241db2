package tsan

import (
	"fmt"
	"runtime"
	"testing"

	"cusango/internal/memspace"
)

// Microbenchmarks for the packed-shadow hot path. These feed the CI
// perf-ratchet lane (ns/op and allocs/op are posted to the PR step
// summary); the committed-baseline gating of the same path lives in the
// perf harness's range-engine scenario.

// BenchmarkPackedShadow measures the warm-shadow walker: repeated
// 64 KiB write annotations with the range cache disabled, so every
// iteration streams the packed-word screen over 8192 granules. The
// steady state takes the exact-same-word skip (no stores at all).
func BenchmarkPackedShadow(b *testing.B) {
	for _, cells := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("cells=%d", cells), func(b *testing.B) {
			s := New(Config{CellsPerGranule: cells, DisableRangeCache: true})
			info := &AccessInfo{Site: "bench packed", Object: "arg 0"}
			const n = 64 << 10
			s.WriteRange(base, n, info) // allocate pages
			b.SetBytes(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.WriteRange(base, n, info)
			}
		})
	}
}

// BenchmarkPackedShadowSlow is the reference walk over the same
// workload — the denominator of the engine speedup.
func BenchmarkPackedShadowSlow(b *testing.B) {
	s := New(Config{Engine: EngineSlow})
	info := &AccessInfo{Site: "bench packed", Object: "arg 0"}
	const n = 64 << 10
	s.WriteRange(base, n, info)
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.WriteRange(base, n, info)
	}
}

// BenchmarkShardedIndex measures AnnotateBatch over the sharded page
// index: one kernel launch's worth of argument ranges checked by
// GOMAXPROCS-bounded workers. Scaling shows up with spare cores; on a
// single-CPU runner this measures the fan-out overhead.
func BenchmarkShardedIndex(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := New(Config{Shards: 16, BatchWorkers: workers, DisableRangeCache: true})
			const args = 8
			const per = 256 << 10
			ops := make([]RangeOp, args)
			for i := range ops {
				ops[i] = RangeOp{
					Addr:  base + memspace.Addr(i)*(per+4<<20),
					Len:   per,
					Write: i%2 == 0,
					Info:  &AccessInfo{Site: "bench launch", Object: fmt.Sprintf("arg %d", i)},
				}
			}
			s.AnnotateBatch(ops) // allocate pages
			b.SetBytes(args * per)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.AnnotateBatch(ops)
			}
		})
	}
}

// BenchmarkStencilWalk replays the shape of a checked Jacobi run: one
// stream fiber alternately reads and writes a 256 KiB buffer, one arc
// per iteration, and the host writes the first and last halo rows
// between arcs. Every walk is at a new epoch, so the range cache never
// hits and each iteration streams the shadow of the whole buffer: after
// the first read-after-write both planes hold the stream's own cells.
func BenchmarkStencilWalk(b *testing.B) {
	const n = 256 << 10
	const halo = 4 << 10
	s := New(Config{})
	stream := s.CreateFiber("stream")
	s.WriteRange(base, n, hostW)
	for i := 0; i < 4; i++ {
		stencilStep(s, stream, n, halo, i)
	}
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stencilStep(s, stream, n, halo, i)
	}
}
