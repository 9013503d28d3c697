// The batch loop of Algorithm 1. DrainFT is the engine's only loop: every
// discovery entry point — Discover, DiscoverGraph, DiscoverSharded, the
// fault-tolerant and resumed runs, and each shard of a fleet — drains its
// batches through it, as a staged concurrent pipeline.
//
//	pull + preprocess ──▶ cluster ──▶ extract + checkpoint
//	(one goroutine,       (worker      (calling goroutine,
//	 in order)             pool)        in order)
//
// The puller (the only code that classifies source faults) and preprocess
// share one goroutine: preprocess (align + vectorize) is serialized in batch
// order because the label aligner and the cross-batch embedding cache are
// order-dependent, but it only needs the CPU briefly and immediately frees
// the next batch for clustering. Clustering — the dominant cost — is pure:
// it reads an immutable Vectorizer snapshot and per-kind seeded hash
// families, so a pool of workers clusters several batches at once, and node
// and edge clustering of the same batch run concurrently. Extraction merges
// candidates into the shared schema and consumes the shared data-type
// sampler; it is the only order-dependent step and stays serialized in batch
// order, which preserves the incremental guarantee S_i ⊑ S_{i+1} and makes
// the finalized schema byte-identical to a serial run with the same seed.
// With PipelineDepth ≤ 1 the same stages run one batch at a time on the
// calling goroutine.
package core

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"pghive/internal/obs"
	"pghive/internal/pg"
)

// ftStaged couples a preprocessed batch with the checkpoint material frozen
// at its preprocess frontier: the session/aligner snapshot (nil when
// checkpointing is off), the stream position, and the quarantine list as of
// this batch.
type ftStaged struct {
	st          staged
	snap        []byte
	snapSlot    int
	snapSkipped []SkipReport
}

// puller pulls batches from a fallible source, absorbing transient faults
// and quarantining poisoned batches. It is the only code that classifies
// source faults: DrainFT confines one to its preprocess stage, and the shard
// router runs one on the calling goroutine. It is not safe for concurrent
// use.
type puller struct {
	src     pg.ErrSource
	opts    FTOptions
	instr   obs.Instr
	slot    int // stream position: delivered + quarantined batches
	skipped []SkipReport
	// onQuarantine, when set, runs after each quarantine past the resume
	// skip window.
	onQuarantine func()
}

func newPuller(src pg.ErrSource, opts FTOptions, instr obs.Instr) *puller {
	return &puller{src: src, opts: opts, instr: instr, skipped: append([]SkipReport(nil), opts.Skipped...)}
}

// next returns the next good batch, or (nil, nil) at end of stream. Every
// good batch is returned, including those inside the resume skip window
// (see replayed): the single pipeline drops them, while the shard router
// re-delivers them because each shard drops its own. Transient errors are
// retried up to the budget; corrupt batches are quarantined (recorded only
// past the skip window — inside it they were already recorded by the
// checkpointed run) and the stream advances.
func (pl *puller) next() (*pg.Batch, error) {
	budget := pl.opts.MaxTransient
	if budget <= 0 {
		budget = DefaultMaxTransient
	}
	transients := 0
	for {
		b, err := pl.src.Next()
		switch {
		case err == nil:
			if b != nil {
				pl.slot++
			}
			return b, nil
		case pg.IsTransient(err):
			transients++
			if transients >= budget {
				return nil, fmt.Errorf("core: slot %d: %d consecutive transient faults: %w", pl.slot, transients, err)
			}
			pl.instr.Add(obs.CtrRetries, 1)
		case pg.IsCorrupt(err):
			pl.slot++
			transients = 0
			if pl.replayed() {
				continue
			}
			pl.skipped = append(pl.skipped, SkipReport{Seq: pl.slot - 1, Reason: err.Error()})
			pl.instr.Add(obs.CtrQuarantined, 1)
			if pl.onQuarantine != nil {
				pl.onQuarantine()
			}
		default:
			return nil, err
		}
	}
}

// replayed reports whether the last slot pulled lies inside the resume skip
// window: the run that wrote the checkpoint already folded it in (or
// quarantined it).
func (pl *puller) replayed() bool { return pl.slot <= pl.opts.SkipSlots }

// DrainFT processes every batch from a fallible source, quarantining
// poisoned batches and checkpointing after each extraction. It returns the
// quarantine list (including any seeded by FTOptions.Skipped) and the first
// permanent error, if any. Config.PipelineDepth selects serial (≤ 1) or
// overlapped execution; both produce identical schemas and identical
// checkpoint sequences.
func (p *Pipeline) DrainFT(src pg.ErrSource, opts FTOptions) ([]SkipReport, error) {
	pl := newPuller(src, opts, p.instr)

	// prep pulls, preprocesses and (when checkpointing) snapshots the
	// preprocess-frontier state for one batch. Must be called in batch
	// order. Sequence numbers continue from any batches already processed
	// or drift-quarantined, so they match the report indexes extract
	// assigns (and the trace's batch labels stay globally consistent across
	// a resume).
	base := p.nextSeq()
	seq := base
	prep := func() (ftStaged, bool, error) {
		t0 := time.Now()
		b, err := pl.next()
		for err == nil && b != nil && pl.replayed() {
			b, err = pl.next() // already folded in by the checkpointed run
		}
		if err != nil || b == nil {
			return ftStaged{}, false, err
		}
		load := time.Since(t0)
		p.loadSpan(seq, b, t0, load)
		fs := ftStaged{st: p.preprocess(b, seq)}
		fs.st.report.Load = load
		seq++
		if opts.Checkpoint != nil {
			if fs.snap, err = p.stateSnapshot(); err != nil {
				return ftStaged{}, false, fmt.Errorf("core: state snapshot: %w", err)
			}
		}
		fs.snapSlot = pl.slot
		fs.snapSkipped = append([]SkipReport(nil), pl.skipped...)
		return fs, true, nil
	}

	// save encodes and persists one checkpoint; called after extract, in
	// batch order. The slot position and quarantine list are the ones
	// stamped when the batch was pulled — quarantines discovered after it
	// belong to the next checkpoint.
	var buf bytes.Buffer // reused across saves (see Checkpointer)
	save := func(snap []byte, slotAfter int, skipped []SkipReport) error {
		start := time.Now()
		buf.Reset()
		if err := p.encodeCheckpoint(&buf, slotAfter, skipped, snap); err != nil {
			return fmt.Errorf("core: encode checkpoint: %w", err)
		}
		if err := opts.Checkpoint.Save(buf.Bytes()); err != nil {
			return fmt.Errorf("core: save checkpoint: %w", err)
		}
		p.instr.Add(obs.CtrCheckpoints, 1)
		p.instr.Add(obs.CtrCheckpointBytes, uint64(buf.Len()))
		p.instr.Span(obs.Span{
			Stage: obs.StageCheckpoint, Batch: len(p.reports) - 1,
			Start: start, Duration: time.Since(start),
			Elements: buf.Len(),
		})
		return nil
	}

	depth := p.cfg.PipelineDepth
	if depth <= 1 {
		for {
			fs, ok, err := prep()
			if err != nil || !ok {
				return p.mergedSkips(pl.skipped), err
			}
			// The batch's own stream slot is snapSlot-1 (snapSlot is the
			// position after its pull); a drift quarantine records it there.
			p.extractChecked(p.clusterStage(fs.st), fs.snapSlot-1)
			if opts.Checkpoint != nil {
				if err := save(fs.snap, fs.snapSlot, p.mergedSkips(fs.snapSkipped)); err != nil {
					return p.mergedSkips(pl.skipped), err
				}
			}
		}
	}

	// Overlapped: pull + preprocess on one goroutine, a cluster worker
	// pool, and checkpoints emitted from the ordered extract stage.
	type ftComputed struct {
		c         computed
		snap      []byte
		slotAfter int
		skipped   []SkipReport
	}
	prepped := make(chan ftStaged, depth)
	clustered := make(chan ftComputed, depth)
	var srcErr error

	go func() {
		defer close(prepped)
		for {
			fs, ok, err := prep()
			if err != nil {
				srcErr = err
				return
			}
			if !ok {
				return
			}
			prepped <- fs
		}
	}()

	// Cluster stage: a worker pool; batches may finish out of order.
	workers := depth - 1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for fs := range prepped {
				clustered <- ftComputed{
					c:         p.clusterStage(fs.st),
					snap:      fs.snap,
					slotAfter: fs.snapSlot,
					skipped:   fs.snapSkipped,
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(clustered)
	}()

	// Extract stage: reorder by sequence number — seeded from the same base
	// as prep, so batches after a drift quarantine are not stranded — and
	// merge in batch order.
	var ckErr error
	pending := map[int]ftComputed{}
	next := base
	for fc := range clustered {
		pending[fc.c.seq] = fc
		for {
			cur, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			p.extractChecked(cur.c, cur.slotAfter-1)
			next++
			if opts.Checkpoint != nil && ckErr == nil {
				// Drift skips are appended on this goroutine (the extract
				// point), so merging here — after this batch's gate — folds
				// its own quarantine into its checkpoint; the prep-frozen
				// fault skips keep their pull-time frontier.
				ckErr = save(cur.snap, cur.slotAfter, p.mergedSkips(cur.skipped))
			}
		}
	}
	if srcErr != nil {
		return p.mergedSkips(pl.skipped), srcErr
	}
	return p.mergedSkips(pl.skipped), ckErr
}

// clusterStage runs LSH clustering for one staged batch, with node and edge
// clustering concurrent when Parallelism > 1 (they are independent:
// separate hash families, disjoint outputs, and a read-only Vectorizer
// snapshot between them). It serves ProcessBatch and both DrainFT
// schedules.
func (p *Pipeline) clusterStage(st staged) computed {
	c := computed{seq: st.seq, b: st.b, start: st.start, report: st.report}
	start := time.Now()
	ns, es := nodeSpec(st.b, st.vz), edgeSpec(st.b, st.vz)
	if p.cfg.Parallelism > 1 && ns.n > 0 && es.n > 0 {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.edgeClusters, c.report.EdgeParams = p.clusterKind(es)
		}()
		c.nodeClusters, c.report.NodeParams = p.clusterKind(ns)
		wg.Wait()
	} else {
		c.nodeClusters, c.report.NodeParams = p.clusterKind(ns)
		c.edgeClusters, c.report.EdgeParams = p.clusterKind(es)
	}
	c.report.Cluster = time.Since(start)
	c.report.NodeClusters = len(c.nodeClusters)
	c.report.EdgeClusters = len(c.edgeClusters)
	p.clusterSpan(&c, start)
	return c
}
