// Sharded multi-core discovery: the element stream is hash-partitioned
// across Config.Shards independent pipelines — each with its own schema,
// symbol table, sampler and embedding session — which run concurrently, one
// overlapped engine per shard. When the stream ends, the partial schemas are
// folded into one global schema by schema.MergeSchemas: shard symtab IDs are
// remapped into the global table through dense translation tables, degree
// and property evidence is unioned, and Algorithm 2's unlabeled-into-labeled
// Jaccard merge re-runs across shard boundaries. Merging shards in index
// order keeps the global symtab assignment — and therefore the serialized
// schema — deterministic for a fixed (Seed, Shards).
//
// The fault-tolerant variant checkpoints the whole fleet into one PGCK8
// container: the router's stream position and quarantine list plus one
// complete PGCK7 section per shard. Sections advance independently (each
// shard checkpoints after its own extractions), so a container pairs the
// newest state of the shard that just saved with the latest states of the
// rest; on resume the router replays the stream from the beginning and each
// shard's own skip window drops exactly the sub-batches it already folded
// in. Because the element→shard assignment ignores batch boundaries, the
// replayed sub-batch sequence is identical, and the resumed run converges to
// byte-identical Finalize output (TestShardedResume).
package core

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"pghive/internal/infer"
	"pghive/internal/obs"
	"pghive/internal/pg"
	"pghive/internal/schema"
)

// chanSource adapts a batch channel to pg.ErrSource: a closed channel is
// end of stream, and a feed never fails.
type chanSource struct{ ch chan *pg.Batch }

// Next implements pg.ErrSource.
func (c *chanSource) Next() (*pg.Batch, error) { return <-c.ch, nil }

// shardConfig derives shard i's pipeline configuration: telemetry events are
// tagged with the shard index, and the worker budget is split across shards
// so N concurrent engines don't oversubscribe the host.
func shardConfig(cfg Config, i int) Config {
	sc := cfg
	sc.Shards = 0
	sc.Telemetry = obs.ShardSink(cfg.Telemetry, i)
	sc.driftShard = i
	if w := cfg.Parallelism / cfg.Shards; w >= 1 {
		sc.Parallelism = w
	} else {
		sc.Parallelism = 1
	}
	return sc
}

// newShardPipelines builds one fresh pipeline per shard.
func newShardPipelines(cfg Config) []*Pipeline {
	pipes := make([]*Pipeline, cfg.Shards)
	for i := range pipes {
		pipes[i] = NewPipeline(shardConfig(cfg, i))
	}
	return pipes
}

// DiscoverSharded is Discover with the stream partitioned across
// cfg.Shards concurrent pipelines: the fault-tolerant router with no
// options (DiscoverShardedFT over pg.AsErrSource). Shards ≤ 1 is exactly
// Discover (byte-identical output); N > 1 merges the partial schemas in
// shard order and finalizes the global schema.
func DiscoverSharded(src pg.Source, cfg Config) *Result {
	return infallible(DiscoverShardedFT(pg.AsErrSource(src), cfg, FTOptions{}))
}

// startShards launches one DrainFT goroutine per pipeline, each consuming
// its own buffered feed channel, skipping the sub-batches a resumed
// checkpoint already folded in (shardSlots) and checkpointing through the
// coordinator when co is set. errs receives each shard's permanent error.
// The returned wait blocks until every shard finishes. A shard that stops
// early keeps draining its feed so the router never blocks on a dead shard.
func startShards(pipes []*Pipeline, cfg Config, shardSlots []int, co *shardCoordinator, errs []error) ([]chan *pg.Batch, func()) {
	feeds := make([]chan *pg.Batch, len(pipes))
	var wg sync.WaitGroup
	for i := range pipes {
		feeds[i] = make(chan *pg.Batch, cfg.PipelineDepth)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// The feed only ever delivers good batches (the router absorbs
			// upstream faults), so the shard's own puller just counts
			// sub-batch slots and honors its resume skip window.
			var ck Checkpointer
			if co != nil {
				ck = shardSaver{co: co, shard: i}
			}
			_, errs[i] = pipes[i].DrainFT(&chanSource{ch: feeds[i]}, FTOptions{
				Checkpoint: ck,
				SkipSlots:  shardSlots[i],
			})
			for range feeds[i] { // unblock the router if this shard died early
			}
		}(i)
	}
	return feeds, wg.Wait
}

// finishSharded closes every shard's final epoch, folds the shards' drift
// activity, skip lists and reports (each stamped with its shard), then
// merges and finalizes the global schema through foldShards and assembles
// the Result.
func finishSharded(pipes []*Pipeline, cfg Config, start time.Time, skipped []SkipReport) *Result {
	var reports []BatchReport
	var drift *DriftSummary
	merged := 0
	shards := make([]*schema.Schema, len(pipes))
	for i, p := range pipes {
		// Close each shard's final partial epoch before merging (shards
		// never call their own Finalize; the global schema is finalized by
		// the fold) and fold its drift activity into the run-level summary.
		// Shard-level skip slots are positions in the shard's own sub-batch
		// stream, so the reason names the shard.
		p.driftFinalEpoch()
		if ds := p.driftSummary(); ds != nil {
			if drift == nil {
				drift = ds
			} else {
				drift.merge(ds)
			}
		}
		for _, s := range p.driftSkipped {
			s.Reason = fmt.Sprintf("shard %d: %s", i, s.Reason)
			skipped = append(skipped, s)
		}
		for _, r := range p.reports {
			r.Shard = i
			reports = append(reports, r)
			merged += r.Nodes + r.Edges
		}
		shards[i] = p.schema
	}
	global, def, post := foldShards(shards, cfg, obs.NewInstr(cfg.Telemetry), merged)
	return &Result{
		Def:         def,
		Schema:      global,
		Reports:     reports,
		Skipped:     skipped,
		Drift:       drift,
		Discovery:   time.Since(start) - post,
		PostProcess: post,
		Telemetry:   telemetrySnapshot(cfg),
	}
}

// foldShards merges shard schemas into a fresh global schema in index order
// (consuming them) and finalizes it. It is the one fold behind both the
// sharded Result and every fleet epoch. instr receives the merge span
// (reporting elements) and the finalize span; the finalize time is
// returned.
func foldShards(shards []*schema.Schema, cfg Config, instr obs.Instr, elements int) (*schema.Schema, *schema.Def, time.Duration) {
	mStart := time.Now()
	global := schema.NewSchema()
	// The merge target carries the same evidence policy as the shards so
	// cross-mode conversions only happen for evidence that predates the
	// policy, and the merged sketches keep their caps.
	global.SetEvidencePolicy(cfg.evidencePolicy())
	for _, s := range shards {
		schema.MergeSchemas(global, s, cfg.Theta)
	}
	instr.Span(obs.Span{
		Stage: obs.StageMerge, Batch: -1,
		Start: mStart, Duration: time.Since(mStart),
		Elements: elements,
	})

	fStart := time.Now()
	def := infer.Finalize(global, infer.Options{
		SampleBased:   cfg.SampleDatatypes,
		Participation: cfg.Participation,
	})
	post := time.Since(fStart)
	instr.Span(obs.Span{
		Stage: obs.StagePostprocess, Batch: -1,
		Start: fStart, Duration: post,
		Elements: len(def.Nodes) + len(def.Edges),
	})
	return global, def, post
}

// fleetEpochs turns the shards' epoch clocks into fleet-wide epochs for
// Config.OnEpoch. At each shard's epoch boundary (its serialized extract
// point) the shard's schema is copied into latest; then, under one mutex,
// every shard's latest copy is decoded and folded by foldShards, exactly as
// the final Result is, and the caller's hook receives the fleet Def. The
// copies are needed because MergeSchemas consumes its source and the other
// shards keep mutating their live schemas.
type fleetEpochs struct {
	cfg Config // OnEpoch is the caller's hook

	mu      sync.Mutex
	latest  [][]byte // each shard's schema at its last epoch, WriteSchema-encoded
	batches []int    // each shard's extracted sub-batches at that copy
	epoch   int
	prev    *schema.Def
}

// installFleetEpochs installs the per-shard hooks in place of cfg.OnEpoch.
// Every shard's copy is seeded from its current schema (fresh or resumed),
// so the first fleet epoch already covers the whole fleet.
func installFleetEpochs(pipes []*Pipeline, cfg Config) {
	f := &fleetEpochs{
		cfg:     cfg,
		latest:  make([][]byte, len(pipes)),
		batches: make([]int, len(pipes)),
	}
	for i, p := range pipes {
		f.latest[i], f.batches[i] = copySchema(p.schema), len(p.reports)
		p.cfg.OnEpoch = func(snap EpochSnapshot) {
			// The shards' final snapshots are taken by finishSharded after
			// the stream ends; the run's own Result.Def supersedes them.
			if !snap.Final {
				f.shardEpoch(i, copySchema(p.schema), snap.Batches)
			}
		}
	}
}

// shardEpoch installs shard i's newest copy and publishes the fleet epoch.
// The caller's hook runs under the fleet mutex: that is what keeps its
// calls from overlapping and its Batches from going backwards.
func (f *fleetEpochs) shardEpoch(i int, copied []byte, batches int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.latest[i], f.batches[i] = copied, batches
	shards := make([]*schema.Schema, len(f.latest))
	total := 0
	for j, b := range f.latest {
		s, err := schema.ReadSchema(pg.NewWireReader(bytes.NewReader(b)))
		if err != nil {
			panic("core: fleet epoch: decoding a schema copy: " + err.Error())
		}
		// As on resume: the evidence policy is configuration, not state.
		s.SetEvidencePolicy(f.cfg.evidencePolicy())
		shards[j] = s
		total += f.batches[j]
	}
	_, def, _ := foldShards(shards, f.cfg, obs.Instr{}, 0)
	var changes []schema.Change
	if f.prev != nil {
		changes = schema.Diff(f.prev, def)
	}
	f.epoch++
	f.prev = def
	f.cfg.OnEpoch(EpochSnapshot{Epoch: f.epoch, Batches: total, Seq: total - 1, Def: def, Changes: changes})
}

// copySchema encodes s with the checkpoint codec: a copy that shares
// nothing with the live schema.
func copySchema(s *schema.Schema) []byte {
	var buf bytes.Buffer
	w := pg.NewWireWriter(&buf)
	err := schema.WriteSchema(w, s)
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		panic("core: fleet epoch: copying a shard schema: " + err.Error())
	}
	return buf.Bytes()
}

// shardCheckpointMagic versions the sharded checkpoint container: router
// position + quarantine list + one complete PGCK7 section per shard (the
// magic moved PGCK6→PGCK8 when sections gained PGCK7's drift state). The
// shard count is validated explicitly from the header (it is not part of
// the configuration fingerprint), so a container written for N shards
// resumes only under Shards = N.
const shardCheckpointMagic = "PGCK8"

// maxShards bounds the shard count accepted from an untrusted container.
const maxShards = 1 << 16

// encodeShardContainer writes one fleet container.
func encodeShardContainer(w *bytes.Buffer, cfg Config, slots int, skipped []SkipReport, states [][]byte) error {
	bw := pg.NewWireWriter(w)
	bw.Raw([]byte(shardCheckpointMagic))
	bw.String(cfg.fingerprint())
	bw.Uvarint(uint64(len(states)))
	bw.Uvarint(uint64(slots))
	bw.Uvarint(uint64(len(skipped)))
	for _, s := range skipped {
		bw.Varint(int64(s.Seq))
		bw.String(s.Reason)
	}
	for _, st := range states {
		bw.Bytes(st)
	}
	return bw.Flush()
}

// decodeShardContainer parses a fleet container, validating the fingerprint
// and that it was written for exactly cfg.Shards shards.
func decodeShardContainer(state []byte, cfg Config) (sections [][]byte, slots int, skipped []SkipReport, err error) {
	br := pg.NewWireReader(bytes.NewReader(state))
	if err := br.Expect(shardCheckpointMagic); err != nil {
		return nil, 0, nil, fmt.Errorf("core: shard checkpoint: %w", err)
	}
	fp, err := br.String()
	if err != nil {
		return nil, 0, nil, fmt.Errorf("core: shard checkpoint fingerprint: %w", err)
	}
	if want := cfg.fingerprint(); fp != want {
		return nil, 0, nil, fmt.Errorf("core: shard checkpoint was written under a different configuration:\n  checkpoint: %s\n  current:    %s", fp, want)
	}
	n, err := br.Uvarint(maxShards)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("core: shard checkpoint shard count: %w", err)
	}
	if int(n) != cfg.Shards {
		return nil, 0, nil, fmt.Errorf("core: shard checkpoint was written for %d shards, resuming with %d", n, cfg.Shards)
	}
	s, err := br.Uvarint(1 << 40)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("core: shard checkpoint slots: %w", err)
	}
	slots = int(s)
	skipCount, err := br.Uvarint(maxSkipped)
	if err != nil {
		return nil, 0, nil, err
	}
	for i := uint64(0); i < skipCount; i++ {
		seq, err := br.Varint()
		if err != nil {
			return nil, 0, nil, err
		}
		reason, err := br.String()
		if err != nil {
			return nil, 0, nil, err
		}
		skipped = append(skipped, SkipReport{Seq: int(seq), Reason: reason})
	}
	sections = make([][]byte, n)
	for i := range sections {
		sec, err := br.String()
		if err != nil {
			return nil, 0, nil, fmt.Errorf("core: shard checkpoint section %d: %w", i, err)
		}
		sections[i] = []byte(sec)
	}
	return sections, slots, skipped, nil
}

// shardCoordinator assembles PGCK8 containers: it holds every shard's latest
// encoded PGCK7 state plus the router's current stream position, and rewrites
// the container whenever any shard checkpoints. One mutex serializes shard
// saves against router position updates, so a container's position is always
// ≥ every sub-batch its sections have folded in, and its quarantine list is
// the exact list as of that position.
type shardCoordinator struct {
	mu      sync.Mutex
	ck      Checkpointer
	cfg     Config
	states  [][]byte
	slots   int
	skipped []SkipReport
	// buf holds the container being written; reused across saves, which
	// the Checkpointer contract allows.
	buf bytes.Buffer
}

// position records the router's stream progress (called before the slot's
// sub-batches are delivered, so no shard state can get ahead of it).
func (co *shardCoordinator) position(slots int, skipped []SkipReport) {
	co.mu.Lock()
	co.slots = slots
	co.skipped = append(co.skipped[:0], skipped...)
	co.mu.Unlock()
}

// save installs shard's newest state and persists the container.
func (co *shardCoordinator) save(shard int, state []byte) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.states[shard] = append(co.states[shard][:0], state...)
	co.buf.Reset()
	if err := encodeShardContainer(&co.buf, co.cfg, co.slots, co.skipped, co.states); err != nil {
		return fmt.Errorf("core: encode shard container: %w", err)
	}
	return co.ck.Save(co.buf.Bytes())
}

// shardSaver is shard i's Checkpointer view of the coordinator.
type shardSaver struct {
	co    *shardCoordinator
	shard int
}

// Save implements Checkpointer.
func (s shardSaver) Save(state []byte) error { return s.co.save(s.shard, state) }

// routeShards pulls the fallible upstream through the shared puller (which
// absorbs transient faults and quarantines poisoned batches) and delivers
// each good batch's non-empty sub-batches to the shard feeds. On resume
// every good batch is re-delivered (each shard drops its own already folded
// sub-batches); the skip window only suppresses re-recording of quarantines
// the checkpointed run already reported. The coordinator's position
// advances after each quarantine past the window and before each delivered
// batch past it. Closes all feeds on return.
func routeShards(src pg.ErrSource, feeds []chan *pg.Batch, opts FTOptions, co *shardCoordinator, instr obs.Instr) ([]SkipReport, error) {
	defer func() {
		for _, ch := range feeds {
			close(ch)
		}
	}()
	pl := newPuller(src, opts, instr)
	if co != nil {
		pl.onQuarantine = func() { co.position(pl.slot, pl.skipped) }
	}
	for {
		b, err := pl.next()
		if err != nil || b == nil {
			return pl.skipped, err
		}
		if co != nil && !pl.replayed() {
			co.position(pl.slot, pl.skipped)
		}
		for j, part := range pg.PartitionBatch(b, len(feeds)) {
			if part.Len() > 0 {
				feeds[j] <- part
			}
		}
	}
}

// DiscoverShardedFT is Discover over a fallible source, with the stream
// partitioned across cfg.Shards pipelines. Shards ≤ 1 runs the single
// pipeline; its checkpoints are single-pipeline PGCK7 states. N > 1
// checkpoints PGCK8 containers covering the whole fleet. Resume either with
// ResumeDiscoverShardedFT; on a permanent source failure the error is
// returned and progress up to it lives in the last checkpoint.
func DiscoverShardedFT(src pg.ErrSource, cfg Config, opts FTOptions) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards <= 1 {
		return NewPipeline(cfg).run(src, opts)
	}
	return runShardedFT(newShardPipelines(cfg), make([]int, cfg.Shards), src, cfg, opts)
}

// ResumeDiscoverShardedFT restores a pipeline (Shards ≤ 1) or a fleet from
// checkpoint bytes and continues draining src — which must replay the same
// stream from the beginning; the slots already folded in are skipped — then
// finalizes. The configuration (including Shards) must match the writer's.
func ResumeDiscoverShardedFT(state []byte, src pg.ErrSource, cfg Config, opts FTOptions) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards <= 1 {
		p, slots, skipped, err := ResumePipeline(bytes.NewReader(state), cfg)
		if err != nil {
			return nil, err
		}
		opts.SkipSlots = slots
		opts.Skipped = skipped
		return p.run(src, opts)
	}
	sections, slots, skipped, err := decodeShardContainer(state, cfg)
	if err != nil {
		return nil, err
	}
	pipes := make([]*Pipeline, cfg.Shards)
	shardSlots := make([]int, cfg.Shards)
	for i := range pipes {
		p, s, shardSkips, err := ResumePipeline(bytes.NewReader(sections[i]), shardConfig(cfg, i))
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", i, err)
		}
		// A shard's feed only ever delivers good batches, so its restored
		// skip list holds exclusively drift quarantines: carry it forward so
		// later shard checkpoints and the final Result keep reporting them.
		p.driftSkipped = shardSkips
		pipes[i] = p
		shardSlots[i] = s
	}
	opts.SkipSlots = slots
	opts.Skipped = skipped
	return runShardedFT(pipes, shardSlots, src, cfg, opts)
}

// runShardedFT drives a fault-tolerant sharded drain: router on the calling
// goroutine, one DrainFT per shard, PGCK8 checkpoints through the
// coordinator, fleet epochs when cfg.OnEpoch is set, then merge + finalize.
func runShardedFT(pipes []*Pipeline, shardSlots []int, src pg.ErrSource, cfg Config, opts FTOptions) (*Result, error) {
	start := time.Now()
	if cfg.OnEpoch != nil {
		installFleetEpochs(pipes, cfg)
	}
	var co *shardCoordinator
	if opts.Checkpoint != nil {
		co = &shardCoordinator{
			ck:      opts.Checkpoint,
			cfg:     cfg,
			states:  make([][]byte, cfg.Shards),
			slots:   opts.SkipSlots,
			skipped: append([]SkipReport(nil), opts.Skipped...),
		}
		// Seed every section with its shard's quiescent state so the very
		// first container is already complete and resumable.
		for i, p := range pipes {
			var buf bytes.Buffer
			if err := p.EncodeCheckpoint(&buf, shardSlots[i], nil); err != nil {
				return nil, fmt.Errorf("core: shard %d: %w", i, err)
			}
			co.states[i] = buf.Bytes()
		}
	}
	errs := make([]error, len(pipes))
	feeds, wait := startShards(pipes, cfg, shardSlots, co, errs)
	skipped, routeErr := routeShards(src, feeds, opts, co, obs.NewInstr(cfg.Telemetry))
	wait()
	if routeErr != nil {
		return nil, routeErr
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", i, err)
		}
	}
	return finishSharded(pipes, cfg, start, skipped), nil
}
