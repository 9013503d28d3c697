// Fault-tolerant ingestion: DrainFT runs the discovery loop over a fallible
// source, degrading gracefully instead of aborting —
//
//   - transient faults are retried in place (the slot is re-pulled; a
//     RetrySource upstream additionally adds backoff),
//   - poisoned batches (corruption, truncation) are quarantined into skip
//     reports and the stream advances,
//   - permanent failures stop the run with an error, after which the last
//     checkpoint resumes it,
//
// and per-batch checkpointing serializes the full pipeline state after every
// extracted batch, so a killed run converges to byte-identical Finalize
// output when resumed (see checkpoint.go for the frontier-consistency
// argument).
package core

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"time"

	"pghive/internal/obs"
	"pghive/internal/pg"
)

// FTOptions configures a fault-tolerant drain.
type FTOptions struct {
	// Checkpoint, when non-nil, receives the encoded pipeline state after
	// every extracted batch.
	Checkpoint Checkpointer
	// SkipSlots drops this many leading stream slots before processing:
	// they were already folded in (or quarantined) by the run that wrote
	// the checkpoint being resumed.
	SkipSlots int
	// Skipped seeds the quarantine list with the batches the checkpointed
	// run had already skipped.
	Skipped []SkipReport
	// MaxTransient bounds consecutive transient faults on one slot before
	// the drain gives up (0 means DefaultMaxTransient). A fault source
	// whose transient bursts are bounded always stays under any positive
	// budget.
	MaxTransient int
}

// DefaultMaxTransient is the consecutive-transient-fault budget per slot.
const DefaultMaxTransient = 100

// Checkpointer persists encoded checkpoints. Save is called from the extract
// stage, strictly in batch order. state is valid only until Save returns:
// the engine reuses its encode buffer for the next checkpoint, so an
// implementation that keeps the bytes must copy them.
type Checkpointer interface {
	Save(state []byte) error
}

// FileCheckpointer atomically writes each checkpoint to one file
// (tmp + rename), so a crash mid-save leaves the previous checkpoint intact.
type FileCheckpointer struct{ Path string }

// Save implements Checkpointer.
func (f FileCheckpointer) Save(state []byte) error {
	tmp := f.Path + ".tmp"
	if err := os.WriteFile(tmp, state, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, f.Path)
}

// Load opens the checkpoint, reporting (nil, false, nil) when none exists
// yet — the caller starts a fresh run.
func (f FileCheckpointer) Load() ([]byte, bool, error) {
	state, err := os.ReadFile(f.Path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return state, true, nil
}

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

// puller pulls the next good batch from a fallible source, absorbing
// transient faults, quarantining poisoned batches and honoring the resume
// skip window. It is not safe for concurrent use; DrainFT confines it to the
// preprocess stage.
type puller struct {
	src     pg.ErrSource
	opts    FTOptions
	instr   obs.Instr
	slot    int // stream position: delivered + quarantined batches
	skipped []SkipReport
}

// next returns the next batch to process, or (nil, nil) at end of stream.
// Transient errors are retried up to the budget; corrupt batches are
// quarantined (recorded only past the skip window — inside it they were
// already recorded by the checkpointed run) and the stream advances.
func (pl *puller) next() (*pg.Batch, error) {
	budget := pl.opts.MaxTransient
	if budget <= 0 {
		budget = DefaultMaxTransient
	}
	transients := 0
	for {
		b, err := pl.src.Next()
		switch {
		case err == nil && b == nil:
			return nil, nil
		case err == nil:
			pl.slot++
			transients = 0
			if pl.slot <= pl.opts.SkipSlots {
				continue // already folded in by the checkpointed run
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
			if pl.slot <= pl.opts.SkipSlots {
				continue
			}
			pl.skipped = append(pl.skipped, SkipReport{Seq: pl.slot - 1, Reason: err.Error()})
			pl.instr.Add(obs.CtrQuarantined, 1)
		default:
			return nil, err
		}
	}
}

// DrainFT processes every batch from a fallible source, quarantining
// poisoned batches and checkpointing after each extraction. It returns the
// quarantine list (including any seeded by FTOptions.Skipped) and the first
// permanent error, if any. Like Drain, PipelineDepth selects serial or
// overlapped execution; both produce identical schemas and identical
// checkpoint sequences.
func (p *Pipeline) DrainFT(src pg.ErrSource, opts FTOptions) ([]SkipReport, error) {
	pl := &puller{src: src, opts: opts, instr: p.instr, skipped: append([]SkipReport(nil), opts.Skipped...)}

	// prep pulls, preprocesses and (when checkpointing) snapshots the
	// preprocess-frontier state for one batch. Must be called in batch
	// order. Sequence numbers continue from any restored reports so they
	// match the report indexes extract assigns (and the trace's batch
	// labels stay globally consistent across a resume).
	seq := p.nextSeq()
	prep := func() (ftStaged, bool, error) {
		t0 := time.Now()
		b, err := pl.next()
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
			p.extractChecked(p.clusterSerial(fs.st), fs.snapSlot-1)
			if opts.Checkpoint != nil {
				if err := save(fs.snap, fs.snapSlot, p.mergedSkips(fs.snapSkipped)); err != nil {
					return p.mergedSkips(pl.skipped), err
				}
			}
		}
	}

	// Overlapped: same stage topology as Drain, with the fault-absorbing
	// puller feeding the preprocess stage and checkpoints emitted from the
	// ordered extract stage.
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

	var ckErr error
	pending := map[int]ftComputed{}
	next := len(p.reports)
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

// DiscoverFT is Discover over a fallible source: it drains with fault
// tolerance, finalizes, and reports quarantined batches in Result.Skipped.
// On a permanent source failure it returns the error; progress up to the
// failure lives in the last checkpoint (resume with ResumeDiscoverFT).
func DiscoverFT(src pg.ErrSource, cfg Config, opts FTOptions) (*Result, error) {
	p := NewPipeline(cfg)
	return p.finishFT(src, opts)
}

// ResumeDiscoverFT restores a pipeline from checkpoint bytes and continues
// draining src — which must replay the same stream from the beginning; the
// slots already folded in are skipped — then finalizes.
func ResumeDiscoverFT(state []byte, src pg.ErrSource, cfg Config, opts FTOptions) (*Result, error) {
	p, slots, skipped, err := ResumePipeline(bytes.NewReader(state), cfg)
	if err != nil {
		return nil, err
	}
	opts.SkipSlots = slots
	opts.Skipped = skipped
	return p.finishFT(src, opts)
}

func (p *Pipeline) finishFT(src pg.ErrSource, opts FTOptions) (*Result, error) {
	start := time.Now()
	skipped, err := p.DrainFT(src, opts)
	if err != nil {
		return nil, err
	}
	discovery := time.Since(start)

	start = time.Now()
	def := p.Finalize()
	post := time.Since(start)

	return &Result{
		Def:         def,
		Schema:      p.schema,
		Reports:     p.reports,
		Skipped:     skipped,
		Drift:       p.driftSummary(),
		Discovery:   discovery,
		PostProcess: post,
		Telemetry:   telemetrySnapshot(p.cfg),
	}, nil
}
