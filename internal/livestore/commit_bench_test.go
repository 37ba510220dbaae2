package livestore

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
)

// benchN is the seed size of the ingest benchmarks.
const benchN = 100000

// benchStore seeds a live store with benchN uniform objects, ids
// 0..benchN-1.
func benchStore(b *testing.B, rng *rand.Rand) *Store {
	b.Helper()
	col := geodata.NewCollection()
	for i := 0; i < benchN; i++ {
		col.Add(i, geo.Pt(rng.Float64(), rng.Float64()), rng.Float64(),
			fmt.Sprintf("cafe bar term%d", i%31))
	}
	s, err := New(col, engine.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkApply measures ingest throughput end to end — validation,
// text vectorization, slot staging, the grid commit and snapshot
// publication — at batch sizes 1, 64 and 1024: one Apply per iteration,
// reported as mutations/s. What it shows is publication cost amortizing
// over the batch. The stream is 3:4:3 insert:update:delete in a steady
// state: inserts take fresh ids, updates move a seed object, deletes
// retire the oldest inserted id still live, so no mutation ever misses
// however long the run. Drawing the batch is inside the timed loop; it
// is a few random numbers per mutation.
func BenchmarkApply(b *testing.B) {
	for _, batch := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("batch-%d", batch), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			s := benchStore(b, rng)
			ctx := context.Background()
			muts := make([]Mutation, batch)
			inserted, deleted := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range muts {
					m := Mutation{Op: OpUpdate, ID: rng.Intn(benchN), Loc: geo.Pt(rng.Float64(), rng.Float64()),
						Weight: rng.Float64(), Text: "cafe bar"}
					switch r := rng.Intn(10); {
					case r < 3:
						m.Op, m.ID = OpInsert, benchN+inserted
						inserted++
					case r >= 7 && deleted < inserted:
						m = Mutation{Op: OpDelete, ID: benchN + deleted}
						deleted++
					}
					muts[j] = m
				}
				_, out, err := s.Apply(ctx, muts)
				if err != nil {
					b.Fatal(err)
				}
				if out.Missed != 0 {
					b.Fatalf("%d mutations missed", out.Missed)
				}
			}
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "mutations/s")
		})
	}
}

// BenchmarkEpochCommit measures the incremental grid commit against the
// full rebuild at a 1%-of-N mutation batch, without the Apply overhead
// around it; the bar for copy-on-write index maintenance is a >= 5x
// speedup. The compaction case is the commit a batch pays instead when
// it overflows an array with a quarter of its slots dead (the least
// dead share that compacts, so the most survivors to copy): the new
// array, bitset and grid, and the ID index rewritten, as one epoch.
func BenchmarkEpochCommit(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	s := benchStore(b, rng)
	onePct := benchN / 100
	dels := make([]geodata.PosLoc, 0, onePct/2)
	adds := make([]geodata.PosLoc, 0, onePct)
	objs := s.cur.Load().col.Objects
	for i := 0; i < onePct/2; i++ {
		p := rng.Intn(benchN)
		dels = append(dels, geodata.PosLoc{Pos: int32(p), Loc: objs[p].Loc})
		adds = append(adds, geodata.PosLoc{Pos: int32(benchN + i), Loc: geo.Pt(rng.Float64(), rng.Float64())})
	}
	gr := s.gr

	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gr.Commit(dels, adds)
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			geodata.NewGrid(objs)
		}
	})
	b.Run("compaction", func(b *testing.B) {
		live := make([]uint64, len(s.live))
		copy(live, s.live)
		for _, p := range rng.Perm(benchN)[:benchN/4] {
			clearBit(live, p)
		}
		appended := make([]geodata.Object, onePct/2)
		appendedLive := make([]bool, len(appended))
		for i := range appended {
			appended[i] = geodata.Object{ID: 2*benchN + i, Loc: geo.Pt(rng.Float64(), rng.Float64())}
			appendedLive[i] = true
		}
		byID := make(map[int]int32, benchN)
		for p := range objs {
			if bitSet(live, p) {
				byID[objs[p].ID] = int32(p)
			}
		}
		for i := 0; i < b.N; i++ {
			b.StopTimer() // compact rewrites the ID index in place
			c := &Store{objs: objs, live: live, liveCount: len(byID), byID: maps.Clone(byID)}
			b.StartTimer()
			c.compact(1, nil, appended, appendedLive)
		}
	})
}
