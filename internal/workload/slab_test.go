package workload

import (
	"math/rand"
	"runtime"
	"testing"

	"memsim/internal/core"
	"memsim/internal/layout"
	"memsim/internal/mems"
)

// refRandom is Random as it was before its requests came from slabs:
// one fresh request per draw, built from the same rng calls in the same
// order.
func refRandom(cfg RandomConfig) []core.Request {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 64 * cfg.MeanBytes
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	now := 0.0
	out := make([]core.Request, 0, cfg.Count)
	for i := 0; i < cfg.Count; i++ {
		now += rng.ExpFloat64() * 1000 / cfg.Rate
		op := core.Write
		if rng.Float64() < cfg.ReadFraction {
			op = core.Read
		}
		bytes := rng.ExpFloat64() * cfg.MeanBytes
		if bytes > cfg.MaxBytes {
			bytes = cfg.MaxBytes
		}
		blocks := int(bytes)/cfg.SectorSize + 1
		lbn := rng.Int63n(cfg.Capacity - int64(blocks) + 1)
		out = append(out, core.Request{Arrival: now, Op: op, LBN: lbn, Blocks: blocks})
	}
	return out
}

// refBipartite is Bipartite as it was before its requests came from
// slabs.
func refBipartite(cfg BipartiteConfig, p layout.Placer) []core.Request {
	rng := rand.New(rand.NewSource(cfg.Seed))
	small := (cfg.SmallBytes + cfg.SectorSize - 1) / cfg.SectorSize
	large := (cfg.LargeBytes + cfg.SectorSize - 1) / cfg.SectorSize
	out := make([]core.Request, 0, cfg.Count)
	for i := 0; i < cfg.Count; i++ {
		class, blocks := layout.Small, small
		if rng.Float64() >= cfg.SmallFraction {
			class, blocks = layout.Large, large
		}
		out = append(out, core.Request{Op: core.Read, LBN: p.Place(rng, class, blocks), Blocks: blocks})
	}
	return out
}

// sameStream drains src and checks it against want field for field,
// that it ends where want does, that no two requests share memory, and
// that no later draw wrote to a request already handed out.
func sameStream(t *testing.T, label string, src Source, want []core.Request) {
	t.Helper()
	got := make([]*core.Request, len(want))
	seen := make(map[*core.Request]bool, len(want))
	for i := range want {
		r := src.Next()
		if r == nil {
			t.Fatalf("%s: stream ended at %d of %d", label, i, len(want))
		}
		if seen[r] {
			t.Fatalf("%s: request %d reuses an earlier request's pointer", label, i)
		}
		got[i], seen[r] = r, true
	}
	if r := src.Next(); r != nil {
		t.Fatalf("%s: stream runs past %d requests", label, len(want))
	}
	for i, r := range got {
		if *r != want[i] {
			t.Fatalf("%s: request %d = %+v, want %+v", label, i, *r, want[i])
		}
	}
}

// TestSlabStreamsMatchReference checks Random and Bipartite against
// copies of their allocate-per-request versions at counts around the
// slab size: a stream that fits one slab, one that fills it exactly, and
// ones that spill into a second and later slabs.
func TestSlabStreamsMatchReference(t *testing.T) {
	g, err := mems.NewGeometry(mems.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 1023, 1024, 1025, 5000} {
		cfg := RandomConfig{Rate: 900, ReadFraction: 0.67, MeanBytes: 4096,
			SectorSize: 512, Capacity: g.TotalSectors, Count: n, Seed: int64(n)}
		sameStream(t, "random", NewRandom(cfg), refRandom(cfg))

		bcfg := DefaultBipartite(int64(n))
		bcfg.Count = n
		want := refBipartite(bcfg, layout.NewOrganPipe(g.TotalSectors, bcfg.SmallFraction))
		sameStream(t, "bipartite", NewBipartite(bcfg, layout.NewOrganPipe(g.TotalSectors, bcfg.SmallFraction)), want)
	}
}

// TestRecycledStreamsMatchReference draws Random and Bipartite with
// every request handed back before the next draw, as a closed run does:
// the stream is the same request for request, and it is one request
// reused throughout.
func TestRecycledStreamsMatchReference(t *testing.T) {
	const n = 3000
	cfg := RandomConfig{Rate: 900, ReadFraction: 0.67, MeanBytes: 4096,
		SectorSize: 512, Capacity: 1 << 22, Count: n, Seed: 2}
	bcfg := DefaultBipartite(2)
	bcfg.Count = n
	pl := func() layout.Placer { return layout.NewOrganPipe(1<<22, bcfg.SmallFraction) }
	for _, tc := range []struct {
		name string
		src  interface {
			Source
			Recycler
		}
		want []core.Request
	}{
		{"random", NewRandom(cfg), refRandom(cfg)},
		{"bipartite", NewBipartite(bcfg, pl()), refBipartite(bcfg, pl())},
	} {
		seen := map[*core.Request]bool{}
		for i, want := range tc.want {
			r := tc.src.Next()
			if r == nil || *r != want {
				t.Fatalf("%s: request %d = %+v, want %+v", tc.name, i, r, want)
			}
			seen[r] = true
			r.Start, r.Finish, r.Failed = 1, 2, true // as a run leaves it
			tc.src.Recycle(r)
		}
		if tc.src.Next() != nil || len(seen) != 1 {
			t.Errorf("%s: %d distinct requests, or the stream runs long", tc.name, len(seen))
		}
	}
}

// TestRandomAllocatesPerSlab counts the heap allocations of a drained
// stream beyond its construction: exactly one per slab of
// core.SlabLen requests.
func TestRandomAllocatesPerSlab(t *testing.T) {
	// A first collection starts the runtime's mark workers, whose own
	// allocations would otherwise land in the count.
	runtime.GC()
	for _, n := range []int{1, 1024, 1025, 5000} {
		cfg := RandomConfig{Rate: 900, ReadFraction: 0.67, MeanBytes: 4096,
			SectorSize: 512, Capacity: 1 << 22, Count: n, Seed: 1}
		build := testing.AllocsPerRun(5, func() { NewRandom(cfg) })
		drain := testing.AllocsPerRun(5, func() {
			w := NewRandom(cfg)
			for w.Next() != nil {
			}
		})
		if got, want := drain-build, float64((n+core.SlabLen-1)/core.SlabLen); got != want {
			t.Errorf("n=%d: %g allocations drawing the stream, want %g", n, got, want)
		}
	}
}

// sinkReq keeps BenchmarkSourceNext's draws live.
var sinkReq *core.Request

// BenchmarkSourceNext is the workload layer's cost per request: one
// Random.Next, in ns and heap allocations per request.
func BenchmarkSourceNext(b *testing.B) {
	w := DefaultRandom(1100, 512, 1<<22, b.N, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkReq = w.Next()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/req")
}
