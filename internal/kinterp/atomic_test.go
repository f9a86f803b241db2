package kinterp

import (
	"math"
	"testing"

	"cusango/internal/kir"
	"cusango/internal/memspace"
)

// reductionModule sums in[i] over i < n into acc[0] and in[i]*in[i] into
// acc[1], one atomic add per thread and address.
func reductionModule() *kir.Module {
	m := kir.NewModule()
	m.Add(kir.KernelFunc("sum", []kir.Param{
		{Name: "acc", Type: kir.TPtrF64},
		{Name: "in", Type: kir.TPtrF64},
		{Name: "n", Type: kir.TInt},
	}, func(e *kir.Emitter) {
		i := e.GlobalIDX()
		e.If(e.Lt(i, e.Arg("n")), func() {
			v := e.LoadIdx(e.Arg("in"), i)
			e.AtomicAddF(e.Arg("acc"), v)
			e.AtomicAddF(e.GEP(e.Arg("acc"), e.ConstI(1)), e.Mul(v, v))
		})
	}))
	return m
}

// nativeSum is the native twin of reductionModule's kernel: it sums its
// thread range locally and publishes once per address.
func nativeSum(g Geometry, lo, hi int, args []Arg, view *memspace.View) error {
	n := int(args[2].I)
	in, err := NewVecF64(view, args[1].Ptr, int64(n))
	if err != nil {
		return err
	}
	var s, sq float64
	for i := lo; i < hi && i < n; i++ {
		v := in.At(int64(i))
		s += v
		sq += v * v
	}
	if err := GlobalAtomicAddF64(view, args[0].Ptr, s); err != nil {
		return err
	}
	return GlobalAtomicAddF64(view, args[0].Ptr+8, sq)
}

// reduce runs the reduction over values whose float sum depends on the
// order of the adds, and returns the bits of both sums.
func reduce(t *testing.T, workers int, native bool) [2]uint64 {
	t.Helper()
	const n = 20_000
	mem := memspace.New()
	in := mem.Alloc(n*8, memspace.KindDevice)
	acc := mem.Alloc(16, memspace.KindDevice)
	for i := int64(0); i < n; i++ {
		mem.SetFloat64(in+memspace.Addr(i*8), math.Sin(float64(i))*math.Pow(10, float64(i%13)))
	}
	eng := engine(t, reductionModule(), Config{Workers: workers, SerialThreshold: 1})
	if native {
		if err := eng.RegisterNative("sum", nativeSum); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Launch("sum", Dim((n+127)/128), Dim(128), []Arg{Ptr(acc), Ptr(in), Int(n)}, mem); err != nil {
		t.Fatal(err)
	}
	return [2]uint64{math.Float64bits(mem.Float64(acc)), math.Float64bits(mem.Float64(acc + 8))}
}

// TestAtomicReductionDeterministic pins float atomics to one result at
// every worker count, interpreted and native alike.
func TestAtomicReductionDeterministic(t *testing.T) {
	want := reduce(t, 1, false)
	for _, native := range []bool{false, true} {
		for _, workers := range []int{1, 2, 3, 8} {
			for rep := 0; rep < 3; rep++ {
				if got := reduce(t, workers, native); got != want {
					t.Fatalf("native=%v workers=%d: sums %x, want %x", native, workers, got, want)
				}
			}
		}
	}
}

// TestAtomicJournalChunkOrder pins the combination order itself: adds
// are summed per chunk in thread order, and the chunk sums are added to
// memory in chunk order.
func TestAtomicJournalChunkOrder(t *testing.T) {
	const total = 40
	vals := make([]float64, total)
	for i := range vals {
		vals[i] = math.Sin(float64(i)) * math.Pow(10, float64(i%7))
	}
	buf := make([]byte, 16)
	err := runChunks(total, 3, func(j *atomicJournal) chunkRunner {
		return rangeFunc(func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				j.add(0, buf[:8], vals[i])
				j.add(8, buf[8:], 1)
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	size := chunkSize(total)
	var want float64
	for lo := 0; lo < total; lo += size {
		var part float64
		for i := lo; i < min(lo+size, total); i++ {
			part += vals[i]
		}
		want += part
	}
	if got := lef64(buf[:8]); got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	if got := lef64(buf[8:]); got != total {
		t.Fatalf("count = %v, want %d", got, total)
	}
}

// rangeFunc adapts a function to chunkRunner.
type rangeFunc func(lo, hi int) error

func (f rangeFunc) runRange(lo, hi int) error { return f(lo, hi) }
