package core

import (
	"bytes"
	"fmt"
	"math"
	"runtime/debug"
	"testing"

	"pghive/internal/datagen"
	"pghive/internal/pg"
	"pghive/internal/schema"
)

// sketchedRampConfig is the engine shape whose checkpoints carry every
// sketch section: an 8 MiB evidence budget (count-min degree tables, HLL
// value uniqueness) and drift evolve, over the given number of shards.
func sketchedRampConfig(shards int) Config {
	cfg := DefaultConfig()
	cfg.Shards = shards
	cfg.DriftPolicy = DriftEvolve
	cfg.MemBudgetBytes = 8 << 20
	return cfg.withDefaults()
}

// rampBatches plays the noise-ramp scenario at the given batch size.
func rampBatches(nodes int, seed int64) []*pg.Batch {
	scn := *datagen.ScenarioByName("noise-ramp")
	scn.BatchNodes = nodes
	st := scn.Stream(seed)
	var batches []*pg.Batch
	for b := st.Next(); b != nil; b = st.Next() {
		batches = append(batches, b)
	}
	return batches
}

// saveFunc adapts a function to Checkpointer.
type saveFunc func(state []byte) error

func (f saveFunc) Save(state []byte) error { return f(state) }

// reencodeCheckpoint decodes a single-pipeline checkpoint and encodes the
// restored pipeline again.
func reencodeCheckpoint(state []byte, cfg Config) ([]byte, error) {
	p, slots, skipped, err := ResumePipeline(bytes.NewReader(state), cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = p.EncodeCheckpoint(&buf, slots, skipped)
	return buf.Bytes(), err
}

// reencodeContainer decodes a fleet container, re-encodes every shard's
// section from its restored pipeline and reassembles the container.
func reencodeContainer(state []byte, cfg Config) ([]byte, error) {
	sections, slots, skipped, err := decodeShardContainer(state, cfg)
	if err != nil {
		return nil, err
	}
	for i, sec := range sections {
		if sections[i], err = reencodeCheckpoint(sec, shardConfig(cfg, i)); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	var buf bytes.Buffer
	err = encodeShardContainer(&buf, cfg, slots, skipped, sections)
	return buf.Bytes(), err
}

// fixedPointSaver checks every checkpoint it is handed: decoding and
// re-encoding must reproduce the saved bytes exactly. It keeps nothing, so
// it also holds the engine to the Save contract (state is only read during
// the call).
func fixedPointSaver(saves *int, reencode func([]byte) ([]byte, error)) Checkpointer {
	return saveFunc(func(state []byte) error {
		*saves++
		got, err := reencode(state)
		if err != nil {
			return fmt.Errorf("save %d: %w", *saves, err)
		}
		if !bytes.Equal(got, state) {
			at := 0
			for at < len(got) && at < len(state) && got[at] == state[at] {
				at++
			}
			return fmt.Errorf("save %d: re-encoded %d bytes differ from the saved %d at offset %d", *saves, len(got), len(state), at)
		}
		return nil
	})
}

// TestCheckpointEncodeDecodeFixedPoint: on a sketched, drift-evolve
// noise-ramp stream, every checkpoint the engine saves is a fixed point of
// decode∘encode, for a 2-shard fleet container and for a single pipeline.
// Byte hashes cannot pin the format (symbol IDs follow map iteration order,
// so two runs of one stream write different bytes); the fixed point pins
// that every section decodes to exactly the state that wrote it.
func TestCheckpointEncodeDecodeFixedPoint(t *testing.T) {
	batches := rampBatches(600, 7)
	t.Run("sharded", func(t *testing.T) {
		cfg := sketchedRampConfig(2)
		saves := 0
		ck := fixedPointSaver(&saves, func(state []byte) ([]byte, error) { return reencodeContainer(state, cfg) })
		if _, err := DiscoverShardedFT(pg.AsErrSource(pg.NewSliceSource(batches...)), cfg, FTOptions{Checkpoint: ck}); err != nil {
			t.Fatal(err)
		}
		if saves < len(batches) {
			t.Fatalf("%d container saves for %d batches", saves, len(batches))
		}
	})
	t.Run("single", func(t *testing.T) {
		cfg := sketchedRampConfig(1)
		saves := 0
		ck := fixedPointSaver(&saves, func(state []byte) ([]byte, error) { return reencodeCheckpoint(state, cfg) })
		if _, err := DiscoverShardedFT(pg.AsErrSource(pg.NewSliceSource(batches...)), cfg, FTOptions{Checkpoint: ck}); err != nil {
			t.Fatal(err)
		}
		if saves != len(batches) {
			t.Fatalf("%d saves for %d batches", saves, len(batches))
		}
	})
}

// sketchedPipeline returns a quiescent pipeline that has folded a few
// noise-ramp batches under the given evidence budget.
func sketchedPipeline(tb testing.TB, budget int64) *Pipeline {
	tb.Helper()
	cfg := sketchedRampConfig(1)
	cfg.MemBudgetBytes = budget
	cfg.PipelineDepth = 1
	p := NewPipeline(cfg)
	if _, err := p.DrainFT(pg.AsErrSource(pg.NewSliceSource(rampBatches(250, 7)[:4]...)), FTOptions{}); err != nil {
		tb.Fatal(err)
	}
	return p
}

// BenchmarkEncodeCheckpointSketched measures one checkpoint encode of a
// sketched pipeline into a reused buffer — the per-batch cost the
// fault-tolerant path pays. CI bounds its allocs/op.
func BenchmarkEncodeCheckpointSketched(b *testing.B) {
	p := sketchedPipeline(b, 8<<20)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := p.EncodeCheckpoint(&buf, 4, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// TestEncodeCheckpointAllocsIndependentOfSketchWidth: encoding allocations
// must not scale with the count-min width — 8 MiB (log-width 12) and
// 256 MiB (log-width 14) budgets allocate exactly the same. The count is
// the least of several single encodes, taken with GC off: the fingerprint's
// Sprintf allocates a fresh printer whenever fmt's sync.Pool comes up empty,
// which happens after a collection and, under the race detector, at random.
func TestEncodeCheckpointAllocsIndependentOfSketchWidth(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(budget int64, logW int) float64 {
		if got := schema.PolicyForBudget(budget).CMSLogWidth; got != logW {
			t.Fatalf("budget %d: count-min log-width %d, want %d", budget, got, logW)
		}
		p := sketchedPipeline(t, budget)
		var buf bytes.Buffer
		least := math.Inf(1)
		for i := 0; i < 10; i++ {
			least = min(least, testing.AllocsPerRun(1, func() {
				buf.Reset()
				if err := p.EncodeCheckpoint(&buf, 4, nil); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return least
	}
	narrow, wide := allocs(8<<20, 12), allocs(256<<20, 14)
	if narrow != wide {
		t.Fatalf("encode allocs/op %v at log-width 12, %v at log-width 14: allocations scale with sketch width", narrow, wide)
	}
	t.Logf("encode allocs/op: %v at both widths", narrow)
}
