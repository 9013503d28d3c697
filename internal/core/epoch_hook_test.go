package core

import (
	"bytes"
	"errors"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"pghive/internal/obs"
	"pghive/internal/pg"
	"pghive/internal/schema"
	"pghive/internal/serialize"
)

// TestOnEpochWithoutDrift: the publication hook alone (DriftPolicy off)
// activates the epoch clock — snapshots fire every EpochInterval batches
// with monotone epoch numbers and immutable defs — while the discovered
// schema stays byte-identical to a hook-free run and Result.Drift stays nil
// (no policy means no drift activity).
func TestOnEpochWithoutDrift(t *testing.T) {
	batches := driftStream(6, 0)
	base := DefaultConfig()
	want := Discover(pg.NewSliceSource(batches...), base)
	wantJSON, _ := renderDef(t, want.Def)

	var snaps []EpochSnapshot
	cfg := base
	cfg.EpochInterval = 2
	cfg.OnEpoch = func(s EpochSnapshot) { snaps = append(snaps, s) }
	got := Discover(pg.NewSliceSource(batches...), cfg)
	gotJSON, _ := renderDef(t, got.Def)

	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("OnEpoch run diverges from hook-free run\nwant %s\ngot  %s", wantJSON, gotJSON)
	}
	if got.Drift != nil {
		t.Errorf("epoch-only mode must not report drift activity: %+v", got.Drift)
	}
	if len(snaps) != 3 {
		t.Fatalf("6 batches at interval 2 want 3 snapshots, got %d", len(snaps))
	}
	for i, s := range snaps {
		if s.Epoch != i+1 {
			t.Errorf("snapshot %d: epoch = %d, want %d", i, s.Epoch, i+1)
		}
		if s.Batches != (i+1)*2 {
			t.Errorf("snapshot %d: batches = %d, want %d", i, s.Batches, (i+1)*2)
		}
		if s.Def == nil {
			t.Fatalf("snapshot %d: nil def", i)
		}
		if i == 0 && s.Changes != nil {
			t.Errorf("baseline snapshot carries changes: %v", s.Changes)
		}
	}
	// The final snapshot's def matches the run's finalized schema: the last
	// window closed exactly at the stream end.
	var snapJSON, resJSON bytes.Buffer
	if err := serialize.WriteJSON(&snapJSON, snaps[2].Def); err != nil {
		t.Fatal(err)
	}
	if err := serialize.WriteJSON(&resJSON, got.Def); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapJSON.Bytes(), resJSON.Bytes()) {
		t.Errorf("final snapshot def differs from Result.Def")
	}
}

// TestOnEpochSnapshotImmutable: a retained snapshot def does not change as
// later batches merge — the published epochs are true copy-on-write views.
func TestOnEpochSnapshotImmutable(t *testing.T) {
	batches := driftStream(6, 2)
	var first *schema.Def
	var firstJSON []byte
	cfg := DefaultConfig()
	cfg.EpochInterval = 2
	cfg.OnEpoch = func(s EpochSnapshot) {
		if first == nil {
			first = s.Def
			var buf bytes.Buffer
			if err := serialize.WriteJSON(&buf, first); err != nil {
				t.Error(err)
			}
			firstJSON = buf.Bytes()
		}
	}
	Discover(pg.NewSliceSource(batches...), cfg)
	var after bytes.Buffer
	if err := serialize.WriteJSON(&after, first); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(firstJSON, after.Bytes()) {
		t.Error("epoch 1 def mutated by later batches")
	}
}

// TestOnEpochComposesWithDrift: with a policy set, the same hook rides the
// existing drift epochs (no separate clock) and drift reporting still works.
func TestOnEpochComposesWithDrift(t *testing.T) {
	batches := driftStream(4, 2)
	epochs := 0
	cfg := DefaultConfig()
	cfg.DriftPolicy = DriftEvolve
	cfg.EpochInterval = 2
	cfg.OnEpoch = func(s EpochSnapshot) { epochs++ }
	res := Discover(pg.NewSliceSource(batches...), cfg)
	if res.Drift == nil || res.Drift.Epochs != epochs {
		t.Fatalf("hook saw %d epochs, summary %+v", epochs, res.Drift)
	}
	if res.Drift.Total() == 0 {
		t.Error("drifting stream reported no violations under evolve+hook")
	}
}

// TestOnEpochShardedFleet: a sharded run hands OnEpoch fleet-wide
// snapshots. Every batch reaches every shard and the batch count is a
// multiple of EpochInterval, so every shard closes an epoch on its last
// sub-batch and the last fleet snapshot folds every shard's complete schema:
// its Def must be byte-identical to DiscoverSharded's. Hook calls never
// overlap, epochs count up from 1, and Batches (sub-batches summed over the
// fleet) never decreases and ends at len(Result.Reports).
func TestOnEpochShardedFleet(t *testing.T) {
	const interval = 4
	batches := faultFreeBatches(t, 300, 2*interval)
	for _, shards := range []int{2, 3} {
		for _, b := range batches {
			for j, part := range pg.PartitionBatch(b, shards) {
				if part.Len() == 0 {
					t.Fatalf("shards=%d: a batch misses shard %d", shards, j)
				}
			}
		}
		base := DefaultConfig()
		base.Shards = shards
		base.EpochInterval = interval
		wantJSON, _ := renderDef(t, DiscoverSharded(pg.NewSliceSource(batches...), base).Def)

		for _, depth := range []int{1, 4} {
			var inHook atomic.Int32
			var snaps []EpochSnapshot
			cfg := base
			cfg.PipelineDepth = depth
			cfg.OnEpoch = func(s EpochSnapshot) {
				if inHook.Add(1) != 1 {
					t.Errorf("shards=%d depth=%d: overlapping OnEpoch calls", shards, depth)
				}
				runtime.Gosched()
				snaps = append(snaps, s)
				inHook.Add(-1)
			}
			res := DiscoverSharded(pg.NewSliceSource(batches...), cfg)
			gotJSON, _ := renderDef(t, res.Def)
			if !bytes.Equal(wantJSON, gotJSON) {
				t.Fatalf("shards=%d depth=%d: OnEpoch changed the sharded schema", shards, depth)
			}
			// Each shard closes 2 epochs over its 8 sub-batches.
			if len(snaps) != 2*shards {
				t.Fatalf("shards=%d depth=%d: %d fleet epochs, want %d", shards, depth, len(snaps), 2*shards)
			}
			for i, s := range snaps {
				if s.Epoch != i+1 || s.Final || s.Seq != s.Batches-1 {
					t.Errorf("shards=%d depth=%d: snapshot %d = {Epoch %d Batches %d Seq %d Final %t}",
						shards, depth, i, s.Epoch, s.Batches, s.Seq, s.Final)
				}
				if i > 0 && s.Batches < snaps[i-1].Batches {
					t.Errorf("shards=%d depth=%d: Batches went %d → %d", shards, depth, snaps[i-1].Batches, s.Batches)
				}
				if i == 0 && s.Changes != nil {
					t.Errorf("shards=%d depth=%d: baseline fleet epoch carries changes: %v", shards, depth, s.Changes)
				}
			}
			last := snaps[len(snaps)-1]
			if last.Batches != len(res.Reports) {
				t.Errorf("shards=%d depth=%d: last fleet epoch at %d sub-batches, run has %d",
					shards, depth, last.Batches, len(res.Reports))
			}
			if lastJSON, _ := renderDef(t, last.Def); !bytes.Equal(wantJSON, lastJSON) {
				t.Errorf("shards=%d depth=%d: last fleet epoch differs from DiscoverSharded\nwant %s\ngot  %s",
					shards, depth, wantJSON, lastJSON)
			}
		}
	}
}

// TestOnEpochShardedResumeSeeded: a resumed fleet's first epoch already
// holds every shard's restored schema. Against the checkpoint's own merged
// schema it removes no type and loses no instance — an unseeded fleet
// would publish only the shard that closed the epoch.
func TestOnEpochShardedResumeSeeded(t *testing.T) {
	batches := faultFreeBatches(t, 300, 8)
	cfg := DefaultConfig()
	cfg.Shards = 3
	cfg.EpochInterval = 4
	cfg.OnEpoch = func(EpochSnapshot) {}
	ck := FileCheckpointer{Path: filepath.Join(t.TempDir(), "fleet.ck")}
	crash := pg.NewFaultSource(pg.AsErrSource(pg.NewSliceSource(batches...)),
		pg.FaultProfile{FailAfter: 5, Seed: 1})
	if _, err := DiscoverShardedFT(crash, cfg, FTOptions{Checkpoint: ck}); !errors.Is(err, pg.ErrPermanentFault) {
		t.Fatalf("want permanent fault, got %v", err)
	}
	state, ok, err := ck.Load()
	if err != nil || !ok {
		t.Fatalf("no container after crash: ok=%t err=%v", ok, err)
	}
	schemas, err := DecodeCheckpointSchemas(state, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, saved, _ := foldShards(schemas, cfg.withDefaults(), obs.Instr{}, 0)

	var first *EpochSnapshot
	cfg.OnEpoch = func(s EpochSnapshot) {
		if first == nil {
			first = &s
		}
	}
	if _, err := ResumeDiscoverShardedFT(state, pg.AsErrSource(pg.NewSliceSource(batches...)), cfg, FTOptions{}); err != nil {
		t.Fatal(err)
	}
	if first == nil {
		t.Fatal("resumed fleet published no epoch")
	}
	for _, c := range schema.Diff(saved, first.Def) {
		if c.Kind == schema.TypeRemoved {
			t.Errorf("first resumed fleet epoch dropped a checkpointed type: %+v", c)
		}
	}
	savedNodes, savedEdges := totalInstances(saved)
	nodes, edges := totalInstances(first.Def)
	if nodes < savedNodes || edges < savedEdges {
		t.Errorf("first resumed fleet epoch holds %d/%d node/edge instances, checkpoint %d/%d",
			nodes, edges, savedNodes, savedEdges)
	}
}
