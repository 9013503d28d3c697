package core

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"pghive/internal/datagen"
	"pghive/internal/pg"
	"pghive/internal/vectorize"
)

// TestFactoredMatchesDense is the tentpole guarantee: the factored signature
// kernels (the default) produce a finalized schema byte-identical — as JSON
// and as PG-Schema DDL — to the dense reference path behind
// Config.DenseSignatures, for both LSH methods, with banded MinHash, at
// serial and overlapped pipeline depths.
func TestFactoredMatchesDense(t *testing.T) {
	g := engineGraph(t, 400)
	cases := []struct {
		name string
		set  func(*Config)
	}{
		{"elsh", func(c *Config) { c.Method = MethodELSH }},
		{"minhash", func(c *Config) { c.Method = MethodMinHash }},
		{"minhash-banded", func(c *Config) { c.Method = MethodMinHash; c.MinHashRows = 4 }},
	}
	for _, tc := range cases {
		for _, depth := range []int{1, 4} {
			cfg := DefaultConfig()
			tc.set(&cfg)
			cfg.PipelineDepth = depth

			dense := cfg
			dense.DenseSignatures = true
			wantJSON, wantDDL := renderDef(t, discoverSplit(g, dense, 6, 11).Def)
			gotJSON, gotDDL := renderDef(t, discoverSplit(g, cfg, 6, 11).Def)

			if !bytes.Equal(wantJSON, gotJSON) {
				t.Errorf("%s depth=%d: factored JSON diverges from dense\ndense:    %s\nfactored: %s",
					tc.name, depth, wantJSON, gotJSON)
			}
			if !bytes.Equal(wantDDL, gotDDL) {
				t.Errorf("%s depth=%d: factored DDL diverges from dense\ndense:\n%s\nfactored:\n%s",
					tc.name, depth, wantDDL, gotDDL)
			}
		}
	}
}

// TestFactoredReportsMatchDense: per-batch cluster counts and adapted LSH
// parameters — not just the final schema — agree between the two kernels.
// This pins the claim that the factored path's per-record adaptation sees
// exactly the vectors the dense path renders. The streams cover both µ
// estimators (all pairs for ≤ 200 elements per kind, sampled pairs above)
// and both sides of the per-record memo (few distinct records on the
// engine graph, many under the noise-ramp scenario's noise).
func TestFactoredReportsMatchDense(t *testing.T) {
	scn := *datagen.ScenarioByName("noise-ramp")
	scn.BatchNodes = 1000
	var ramp []*pg.Batch
	st := scn.Stream(5)
	for b := st.Next(); b != nil; b = st.Next() {
		ramp = append(ramp, b)
	}
	streams := []struct {
		name     string
		batches  []*pg.Batch
		sampled  bool // some batch exceeds 200 elements of each kind
		unmemoed bool // some batch has too many distinct records for the memo
	}{
		{"engine-300x5", engineGraph(t, 300).SplitRandom(5, 3), false, false},
		{"engine-2000x4", engineGraph(t, 2000).SplitRandom(4, 3), true, false},
		{"noise-ramp", ramp, true, true},
	}
	for _, s := range streams {
		sampled, unmemoed := false, false
		for _, b := range s.batches {
			vz := vectorize.NewSession(DefaultConfig().vectorizeConfig()).Vectorize(b)
			for _, spec := range []kindSpec{nodeSpec(b, vz), edgeSpec(b, vz)} {
				_, reps := spec.enc().DistinctRecords()
				sampled = sampled || spec.n > 200
				// The memo table is skipped once r² exceeds the 20k pairs.
				unmemoed = unmemoed || (spec.n > 200 && len(reps)*len(reps) > 20_000)
			}
		}
		if sampled != s.sampled || unmemoed != s.unmemoed {
			t.Fatalf("%s: sampled pairs %t, memo bypassed %t; want %t, %t", s.name, sampled, unmemoed, s.sampled, s.unmemoed)
		}
		for _, m := range []Method{MethodELSH, MethodMinHash} {
			cfg := DefaultConfig()
			cfg.Method = m
			dense := cfg
			dense.DenseSignatures = true
			want := Discover(pg.NewSliceSource(s.batches...), dense)
			got := Discover(pg.NewSliceSource(s.batches...), cfg)
			if len(want.Reports) != len(got.Reports) {
				t.Fatalf("%s %v: %d factored reports, %d dense", s.name, m, len(got.Reports), len(want.Reports))
			}
			for i := range want.Reports {
				w, gr := want.Reports[i], got.Reports[i]
				if w.NodeClusters != gr.NodeClusters || w.EdgeClusters != gr.EdgeClusters {
					t.Errorf("%s %v batch %d: clusters (n=%d,e=%d) factored vs (n=%d,e=%d) dense",
						s.name, m, i, gr.NodeClusters, gr.EdgeClusters, w.NodeClusters, w.EdgeClusters)
				}
				if w.NodeParams != gr.NodeParams || w.EdgeParams != gr.EdgeParams {
					t.Errorf("%s %v batch %d: adapted params diverge\nfactored: %+v / %+v\ndense:    %+v / %+v",
						s.name, m, i, gr.NodeParams, gr.EdgeParams, w.NodeParams, w.EdgeParams)
				}
			}
		}
	}
}

// TestAdaptRecordsAllocsIndependentOfBatchSize: per-record adaptation
// renders and memoizes per distinct record, so at a fixed set of distinct
// records a batch four times larger costs no extra allocations.
func TestAdaptRecordsAllocsIndependentOfBatchSize(t *testing.T) {
	allocs := func(n int) float64 {
		b := &pg.Batch{}
		for i := 0; i < n; i++ {
			switch i % 3 {
			case 0:
				b.Nodes = append(b.Nodes, pg.NodeRecord{ID: pg.ID(i), Labels: []string{"Person"},
					Props: pg.Properties{"name": pg.Str("p"), "age": pg.Int(30)}})
			case 1:
				b.Nodes = append(b.Nodes, pg.NodeRecord{ID: pg.ID(i), Labels: []string{"Post"},
					Props: pg.Properties{"content": pg.Str("c")}})
			default:
				b.Nodes = append(b.Nodes, pg.NodeRecord{ID: pg.ID(i), Props: pg.Properties{"sensor": pg.Str("s")}})
			}
		}
		vz := vectorize.NewSession(DefaultConfig().vectorizeConfig()).Vectorize(b)
		spec := nodeSpec(b, vz)
		recID, reps := spec.enc().DistinctRecords()
		if len(reps) != 3 {
			t.Fatalf("n=%d: %d distinct records, want 3", n, len(reps))
		}
		return testing.AllocsPerRun(10, func() { adaptRecords(spec, recID, reps, 11) })
	}
	// Both sizes take the sampled-pairs branch (> 200 elements).
	if small, large := allocs(300), allocs(1200); small != large {
		t.Errorf("adaptRecords allocations grow with the batch: %v at N=300, %v at N=1200", small, large)
	}
}

// TestResumeAcrossKernels: DenseSignatures is execution-only — a checkpoint
// written by a dense run (crashed mid-stream) resumes under the factored
// kernels, and vice versa, finishing byte-identical to an uninterrupted run.
func TestResumeAcrossKernels(t *testing.T) {
	batches := faultFreeBatches(t, 300, 6)
	base := DefaultConfig()
	wantJSON, wantDDL := renderDef(t, Discover(pg.NewSliceSource(batches...), base).Def)

	for _, flip := range []struct {
		name           string
		writer, reader bool // DenseSignatures at crash time / resume time
	}{
		{"dense-to-factored", true, false},
		{"factored-to-dense", false, true},
	} {
		cfg := base
		cfg.DenseSignatures = flip.writer
		ck := FileCheckpointer{Path: filepath.Join(t.TempDir(), "run.ck")}
		crash := pg.NewFaultSource(pg.AsErrSource(pg.NewSliceSource(batches...)),
			pg.FaultProfile{FailAfter: 3, Seed: 1})
		if _, err := DiscoverShardedFT(crash, cfg, FTOptions{Checkpoint: ck}); !errors.Is(err, pg.ErrPermanentFault) {
			t.Fatalf("%s: want permanent fault, got %v", flip.name, err)
		}

		state, ok, err := ck.Load()
		if err != nil || !ok {
			t.Fatalf("%s: no checkpoint after crash: ok=%t err=%v", flip.name, ok, err)
		}
		cfg.DenseSignatures = flip.reader
		res, err := ResumeDiscoverShardedFT(state, pg.AsErrSource(pg.NewSliceSource(batches...)), cfg, FTOptions{Checkpoint: ck})
		if err != nil {
			t.Fatalf("%s: resume: %v", flip.name, err)
		}
		gotJSON, gotDDL := renderDef(t, res.Def)
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Errorf("%s: resumed JSON diverges\nwant %s\ngot  %s", flip.name, wantJSON, gotJSON)
		}
		if !bytes.Equal(wantDDL, gotDDL) {
			t.Errorf("%s: resumed DDL diverges", flip.name)
		}
	}
}
