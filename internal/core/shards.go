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

// chanSource adapts a batch channel to pg.Source: a closed channel is end of
// stream.
type chanSource struct{ ch chan *pg.Batch }

// Next implements pg.Source.
func (c *chanSource) Next() *pg.Batch { return <-c.ch }

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
// cfg.Shards concurrent pipelines. Shards ≤ 1 is exactly Discover
// (byte-identical output); N > 1 merges the partial schemas in shard order
// and finalizes the global schema.
func DiscoverSharded(src pg.Source, cfg Config) *Result {
	cfg = cfg.withDefaults()
	if cfg.Shards <= 1 {
		return Discover(src, cfg)
	}
	start := time.Now()
	pipes := newShardPipelines(cfg)
	feeds, wait := startShards(pipes, cfg, nil, nil, nil)
	for b := src.Next(); b != nil; b = src.Next() {
		for j, part := range pg.PartitionBatch(b, cfg.Shards) {
			if part.Len() > 0 {
				feeds[j] <- part
			}
		}
	}
	for _, ch := range feeds {
		close(ch)
	}
	wait()
	return finishSharded(pipes, cfg, start, nil)
}

// startShards launches one drain goroutine per pipeline, each consuming its
// own buffered feed channel. With shardSlots/co set the shards run DrainFT
// (skipping the sub-batches a resumed checkpoint already folded in,
// checkpointing through the coordinator); otherwise they run the plain
// Drain. errs, when non-nil, receives each shard's permanent error. The
// returned wait blocks until every shard finishes. A shard that stops early
// keeps draining its feed so the router never blocks on a dead shard.
func startShards(pipes []*Pipeline, cfg Config, shardSlots []int, co *shardCoordinator, errs []error) ([]chan *pg.Batch, func()) {
	feeds := make([]chan *pg.Batch, len(pipes))
	var wg sync.WaitGroup
	for i := range pipes {
		feeds[i] = make(chan *pg.Batch, cfg.PipelineDepth)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if shardSlots == nil {
				pipes[i].Drain(&chanSource{ch: feeds[i]})
			} else {
				// The feed only ever delivers good batches (the router
				// absorbs upstream faults), so the shard's own puller just
				// counts sub-batch slots and honors its resume skip window.
				var ck Checkpointer
				if co != nil {
					ck = shardSaver{co: co, shard: i}
				}
				_, err := pipes[i].DrainFT(pg.AsErrSource(&chanSource{ch: feeds[i]}), FTOptions{
					Checkpoint: ck,
					SkipSlots:  shardSlots[i],
				})
				if errs != nil {
					errs[i] = err
				}
			}
			for range feeds[i] { // unblock the router if this shard died early
			}
		}(i)
	}
	return feeds, wg.Wait
}

// finishSharded merges the shard schemas in index order, stamps each report
// with its shard, finalizes the global schema and assembles the Result.
func finishSharded(pipes []*Pipeline, cfg Config, start time.Time, skipped []SkipReport) *Result {
	instr := obs.NewInstr(cfg.Telemetry)

	mStart := time.Now()
	global := schema.NewSchema()
	// The merge target carries the same evidence policy as the shards so
	// cross-mode conversions only happen for evidence that predates the
	// policy, and the merged sketches keep their caps.
	global.SetEvidencePolicy(cfg.evidencePolicy())
	var reports []BatchReport
	var drift *DriftSummary
	merged := 0
	for i, p := range pipes {
		// Close each shard's final partial epoch before merging (shards
		// never call their own Finalize; the global schema is finalized
		// below) and fold its drift activity into the run-level summary.
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
		schema.MergeSchemas(global, p.schema, cfg.Theta)
		for _, r := range p.reports {
			r.Shard = i
			reports = append(reports, r)
			merged += r.Nodes + r.Edges
		}
	}
	instr.Span(obs.Span{
		Stage: obs.StageMerge, Batch: -1,
		Start: mStart, Duration: time.Since(mStart),
		Elements: merged,
	})
	discovery := time.Since(start)

	fStart := time.Now()
	def := infer.Finalize(global, infer.Options{
		SampleBased:   cfg.SampleDatatypes,
		Participation: cfg.Participation,
	})
	instr.Span(obs.Span{
		Stage: obs.StagePostprocess, Batch: -1,
		Start: fStart, Duration: time.Since(fStart),
		Elements: len(def.Nodes) + len(def.Edges),
	})

	return &Result{
		Def:         def,
		Schema:      global,
		Reports:     reports,
		Skipped:     skipped,
		Drift:       drift,
		Discovery:   discovery,
		PostProcess: time.Since(fStart),
		Telemetry:   telemetrySnapshot(cfg),
	}
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
		bw.String(string(st))
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
	co.states[shard] = append([]byte(nil), state...)
	var buf bytes.Buffer
	if err := encodeShardContainer(&buf, co.cfg, co.slots, co.skipped, co.states); err != nil {
		return fmt.Errorf("core: encode shard container: %w", err)
	}
	return co.ck.Save(buf.Bytes())
}

// shardSaver is shard i's Checkpointer view of the coordinator.
type shardSaver struct {
	co    *shardCoordinator
	shard int
}

// Save implements Checkpointer.
func (s shardSaver) Save(state []byte) error { return s.co.save(s.shard, state) }

// routeShards pulls the fallible upstream, absorbing transient faults and
// quarantining poisoned batches exactly like the single-pipeline puller, and
// delivers each good batch's non-empty sub-batches to the shard feeds. On
// resume every good batch is re-delivered (each shard drops its own already
// folded sub-batches); the skip window only suppresses re-recording of
// quarantines the checkpointed run already reported. Closes all feeds on
// return.
func routeShards(src pg.ErrSource, feeds []chan *pg.Batch, opts FTOptions, co *shardCoordinator, instr obs.Instr) ([]SkipReport, error) {
	defer func() {
		for _, ch := range feeds {
			close(ch)
		}
	}()
	budget := opts.MaxTransient
	if budget <= 0 {
		budget = DefaultMaxTransient
	}
	slot := 0
	skipped := append([]SkipReport(nil), opts.Skipped...)
	transients := 0
	for {
		b, err := src.Next()
		switch {
		case err == nil && b == nil:
			return skipped, nil
		case err == nil:
			slot++
			transients = 0
			if co != nil && slot > opts.SkipSlots {
				co.position(slot, skipped)
			}
			for j, part := range pg.PartitionBatch(b, len(feeds)) {
				if part.Len() > 0 {
					feeds[j] <- part
				}
			}
		case pg.IsTransient(err):
			transients++
			if transients >= budget {
				return skipped, fmt.Errorf("core: slot %d: %d consecutive transient faults: %w", slot, transients, err)
			}
			instr.Add(obs.CtrRetries, 1)
		case pg.IsCorrupt(err):
			slot++
			transients = 0
			if slot <= opts.SkipSlots {
				continue // already recorded by the checkpointed run
			}
			skipped = append(skipped, SkipReport{Seq: slot - 1, Reason: err.Error()})
			instr.Add(obs.CtrQuarantined, 1)
			if co != nil {
				co.position(slot, skipped)
			}
		default:
			return skipped, err
		}
	}
}

// DiscoverShardedFT is DiscoverFT with the stream partitioned across
// cfg.Shards pipelines. Shards ≤ 1 delegates to DiscoverFT. Checkpoints are
// PGCK8 containers covering the whole fleet; resume them with
// ResumeDiscoverShardedFT.
func DiscoverShardedFT(src pg.ErrSource, cfg Config, opts FTOptions) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards <= 1 {
		return DiscoverFT(src, cfg, opts)
	}
	return runShardedFT(newShardPipelines(cfg), make([]int, cfg.Shards), src, cfg, opts)
}

// ResumeDiscoverShardedFT restores a fleet from a PGCK8 container and
// continues draining src — which must replay the same stream from the
// beginning — then merges and finalizes. The configuration (including
// Shards) must match the writer's.
func ResumeDiscoverShardedFT(state []byte, src pg.ErrSource, cfg Config, opts FTOptions) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards <= 1 {
		return ResumeDiscoverFT(state, src, cfg, opts)
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
// coordinator, then merge + finalize.
func runShardedFT(pipes []*Pipeline, shardSlots []int, src pg.ErrSource, cfg Config, opts FTOptions) (*Result, error) {
	start := time.Now()
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
