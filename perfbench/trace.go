package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"pghive/internal/core"
	"pghive/internal/embed"
	"pghive/internal/infer"
	"pghive/internal/lsh"
	"pghive/internal/pg"
	"pghive/internal/schema"
	"pghive/internal/serialize"
	"pghive/internal/validate"
	"pghive/internal/vectorize"
)

// span is one bench-owned timing span: a call into one layer's public
// functions, made from this package.
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"` // index into the span list; -1 for a root
	Kind   string  `json:"kind"`
	Start  float64 `json:"start_us"` // since the tracer started
	End    float64 `json:"end_us"`
}

// Span kinds. An own span is a call the program's own path makes; a replay
// span re-runs, from public functions, a step that a later own call
// (Pipeline.ProcessBatch) performs again internally; a probe span measures
// an input property the program's path does not compute.
const (
	kindOwn    = "own"
	kindReplay = "replay"
	kindProbe  = "probe"
)

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) since(at time.Time) float64 {
	return float64(at.Sub(t.t0)) / float64(time.Microsecond)
}

// passTrace accumulates one traced pass: per-layer busy time by span name,
// the replayed and probed time, and the counts taken at the same
// boundaries. With no tracer it is off: the pass runs only its own calls,
// with no spans, replays or probes, so its wall is the untraced baseline
// of the same loop.
type passTrace struct {
	tr      *tracer
	off     bool
	start   time.Time
	root    int
	layer   map[string]time.Duration
	replay  time.Duration
	probe   time.Duration
	covered time.Duration

	decoded, decodeAllocs       uint64
	adaptSample, signed         int
	prefixes, distinct          int
	clusters                    int
	checkpointBytes, violations uint64
	retrains                    uint64
	jsonBytes                   int
	evidenceBytes               int64
}

// newPassTrace opens a root span with the given name (an off pass when tr
// is nil).
func newPassTrace(tr *tracer, name string) *passTrace {
	pt := &passTrace{tr: tr, off: tr == nil, start: time.Now(), layer: map[string]time.Duration{}}
	if !pt.off {
		pt.root = len(tr.spans)
		tr.spans = append(tr.spans, span{Name: name, Parent: -1, Kind: kindOwn, Start: tr.since(pt.start)})
	}
	return pt
}

// do runs f inside a span that is a child of the root and returns its
// duration. Spans of one root never overlap: traced work runs serially at
// GOMAXPROCS 1. An off pass runs own calls untimed and skips the rest.
func (pt *passTrace) do(name, kind string, f func()) time.Duration {
	if pt.off {
		if kind == kindOwn {
			f()
		}
		return 0
	}
	start := time.Now()
	f()
	end := time.Now()
	d := end.Sub(start)
	pt.tr.spans = append(pt.tr.spans, span{Name: name, Parent: pt.root, Kind: kind, Start: pt.tr.since(start), End: pt.tr.since(end)})
	pt.layer[name] += d
	pt.covered += d
	switch kind {
	case kindReplay:
		pt.replay += d
	case kindProbe:
		pt.probe += d
	}
	return d
}

// finish closes the root span and returns the pass's wall time.
func (pt *passTrace) finish() time.Duration {
	now := time.Now()
	if pt.off {
		return now.Sub(pt.start)
	}
	r := &pt.tr.spans[pt.root]
	r.End = pt.tr.since(now)
	return time.Duration((r.End - r.Start) * float64(time.Microsecond))
}

// Seed offsets of the node and edge LSH families inside core's cluster
// stage. The replay must use the same ones; the BatchReport comparison
// catches any drift (a test shifts them to show it does).
var (
	nodeAdaptSeed, nodeFamSeed int64 = 11, 102
	edgeAdaptSeed, edgeFamSeed int64 = 12, 202
)

// replayer re-runs one pipeline's preprocess and cluster steps from public
// functions, with its own embedding session fed the same batches in the
// same order, so it reaches the same vectorizers, LSH parameters and
// clusters as the pipeline it shadows.
type replayer struct {
	cfg      core.Config
	sess     *vectorize.Session
	est      [2]int
	checker  *validate.StreamChecker
	epochDue bool
}

func newReplayer(cfg core.Config) *replayer {
	r := &replayer{cfg: cfg, sess: vectorize.NewSession(vectorizeConfig(cfg))}
	if cfg.DriftPolicy != core.DriftOff {
		r.checker = validate.NewStreamChecker(8)
	}
	return r
}

// vectorizeConfig mirrors how core derives the vectorizer configuration.
func vectorizeConfig(c core.Config) vectorize.Config {
	vc := vectorize.Config{Embedding: c.Embedding, LabelWeight: c.LabelWeight, SemanticLabels: c.SemanticLabels}
	if vc.Embedding.Dim == 0 {
		def := embed.DefaultConfig()
		def.Dim = 0
		def.Seed = c.Seed
		vc.Embedding = def
	}
	return vc
}

// onEpoch follows the pipeline's epoch clock: the checker validates later
// batches against the new epoch, and the snapshot's finalize is replayed.
func (r *replayer) onEpoch(snap core.EpochSnapshot) {
	r.epochDue = true
	if r.checker != nil {
		r.checker.SetEpoch(snap.Def)
	}
}

// replayed is what the replay computed for one batch, compared with the
// pipeline's BatchReport.
type replayed struct {
	nodeParams, edgeParams     lsh.Params
	nodeClusters, edgeClusters int
}

func (r *replayer) batch(pt *passTrace, b *pg.Batch) replayed {
	var vz *vectorize.Vectorizer
	pt.do("vectorize.vectorize", kindReplay, func() { vz = r.sess.Vectorize(b) })
	if r.checker != nil && r.checker.Ready() {
		pt.do("validate.check", kindReplay, func() {
			v := r.checker.CheckBatch(b)
			pt.violations += v.Total()
		})
	}
	var out replayed
	out.nodeClusters, out.nodeParams = r.kind(pt, b, vz, false)
	out.edgeClusters, out.edgeParams = r.kind(pt, b, vz, true)
	return out
}

// kind replays the default (factored ELSH, adaptive parameters) cluster
// step for one element kind.
func (r *replayer) kind(pt *passTrace, b *pg.Batch, vz *vectorize.Vectorizer, isEdge bool) (int, lsh.Params) {
	n, dim, k := len(b.Nodes), vz.NodeDim(), 0
	adaptSeed, famSeed := r.cfg.Seed+nodeAdaptSeed, r.cfg.Seed+nodeFamSeed
	render := func(i int, dst []float64) { vz.NodeVectorInto(&b.Nodes[i], dst) }
	encode := vz.NodeEncoding
	if isEdge {
		n, dim, k = len(b.Edges), vz.EdgeDim(), 1
		adaptSeed, famSeed = r.cfg.Seed+edgeAdaptSeed, r.cfg.Seed+edgeFamSeed
		render = func(i int, dst []float64) { vz.EdgeVectorInto(&b.Edges[i], dst) }
		encode = vz.EdgeEncoding
	}
	if n == 0 {
		return 0, lsh.Params{}
	}
	var params lsh.Params
	pt.do("lsh.adapt", kindReplay, func() {
		idx := lsh.SampleIndexes(n, adaptSeed)
		backing := make([]float64, len(idx)*dim)
		sample := make([][]float64, len(idx))
		for i, j := range idx {
			v := backing[i*dim : (i+1)*dim : (i+1)*dim]
			render(j, v)
			sample[i] = v
		}
		params = lsh.AdaptParams(sample, n, vz.LabelTokens(), isEdge, adaptSeed)
		pt.adaptSample += len(idx)
	})
	var enc *vectorize.Encoding
	pt.do("vectorize.encode", kindReplay, func() { enc = encode(b) })
	pt.do("vectorize.distinct_records", kindProbe, func() {
		_, reps := enc.DistinctRecords()
		pt.distinct += len(reps)
	})
	hashes := make([]uint64, n)
	pt.do("lsh.sign", kindReplay, func() {
		fam := lsh.NewELSH(dim, params.Bucket, params.Tables, famSeed)
		h := lsh.NewFactoredELSH(fam, enc.PrefixDim, enc.Prefixes).Hasher()
		for i, rec := range enc.Records {
			hashes[i] = h.SignatureHash(rec.TokenID, rec.Props)
		}
	})
	pt.prefixes += len(enc.Prefixes)
	pt.signed += n
	var clusters []lsh.Cluster
	pt.do("lsh.group", kindReplay, func() {
		hint := 0
		if est := r.est[k]; est > 0 {
			hint = est + est/8 + 16
		}
		clusters = lsh.GroupByHashSized(hashes, hint)
	})
	r.est[k] = len(clusters)
	pt.clusters += len(clusters)
	return len(clusters), params
}

// checkReplayable rejects configurations whose cluster step the replay does
// not reproduce.
func checkReplayable(cfg core.Config) error {
	if cfg.Method != core.MethodELSH || cfg.DenseSignatures || cfg.NodeParams != nil || cfg.EdgeParams != nil || cfg.AlignLabels {
		return fmt.Errorf("traced replay covers only the default factored ELSH path with adaptive parameters")
	}
	return nil
}

// replayPass is one traced pass over the stream at depth 1: every batch is
// decoded (when the stream is encoded), routed to its shards, replayed,
// processed by the shard's pipeline and checkpointed; then the shards are
// merged, the schema finalized and serialized. The replayed LSH parameters
// and cluster counts must equal each BatchReport, and the schema must equal
// the reference. With a nil tracer the same loop runs without spans,
// replays or probes.
func replayPass(s *stream, tr *tracer, out *outcome) (*passTrace, time.Duration, error) {
	if err := checkReplayable(s.cfg); err != nil {
		return nil, 0, err
	}
	cfg := s.cfg
	cfg.PipelineDepth = 1
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	pt := newPassTrace(tr, "pass")
	reps := make([]*replayer, shards)
	pipes := make([]*core.Pipeline, shards)
	for i := range pipes {
		pc := cfg
		pc.Shards = 0
		pc.Parallelism = 1
		if pc.DriftPolicy != core.DriftOff || pc.OnEpoch != nil {
			pc.OnEpoch = func(core.EpochSnapshot) {}
		}
		if !pt.off {
			reps[i] = newReplayer(pc)
			if pc.OnEpoch != nil {
				pc.OnEpoch = reps[i].onEpoch
			}
		}
		pipes[i] = core.NewPipeline(pc)
	}
	finalizeOpts := infer.Options{SampleBased: cfg.SampleDatatypes, Participation: cfg.Participation}

	// The fleet checkpointer sees one container per save holding the latest
	// section of every shard, as core's shard coordinator assembles it; the
	// first container is written from the quiescent shards.
	var ck memCheckpointer
	sections := make([][]byte, shards)
	slots := make([]int, shards)
	var container, section bytes.Buffer
	save := func(i int) error {
		section.Reset()
		if err := pipes[i].EncodeCheckpoint(&section, slots[i], nil); err != nil {
			return err
		}
		sections[i] = append(sections[i][:0], section.Bytes()...)
		container.Reset()
		for _, sec := range sections {
			container.Write(sec)
		}
		pt.checkpointBytes += uint64(container.Len())
		return ck.Save(container.Bytes())
	}
	var err error
	if s.checkpoint {
		for i := range pipes {
			if pt.do("core.checkpoint", kindOwn, func() { err = save(i) }); err != nil {
				return nil, 0, err
			}
		}
	}

	var src *wireSource
	if s.encoded != nil {
		src = &wireSource{encoded: s.encoded}
	}
	for bi := range s.batches {
		b := s.batches[bi]
		if src != nil {
			var m0, m1 runtime.MemStats
			if !pt.off {
				runtime.ReadMemStats(&m0)
			}
			pt.do("pg.decode", kindOwn, func() { b, err = src.Next() })
			if err != nil {
				return nil, 0, err
			}
			if !pt.off {
				runtime.ReadMemStats(&m1)
				pt.decoded += uint64(b.Len())
				pt.decodeAllocs += m1.Mallocs - m0.Mallocs
			}
		}
		parts := []*pg.Batch{b}
		if shards > 1 {
			pt.do("core.route", kindOwn, func() { parts = pg.PartitionBatch(b, shards) })
		}
		for i, part := range parts {
			if part.Len() == 0 {
				continue
			}
			r := reps[i]
			var want replayed
			if r != nil {
				want = r.batch(pt, part)
			}
			var rep core.BatchReport
			pt.do("core.process_batch", kindOwn, func() { rep = pipes[i].ProcessBatch(part) })
			if r != nil && (rep.NodeParams != want.nodeParams || rep.EdgeParams != want.edgeParams ||
				rep.NodeClusters != want.nodeClusters || rep.EdgeClusters != want.edgeClusters) {
				out.fail("replay of batch %d shard %d: params %+v/%+v clusters %d/%d, BatchReport %+v/%+v clusters %d/%d",
					bi, i, want.nodeParams, want.edgeParams, want.nodeClusters, want.edgeClusters,
					rep.NodeParams, rep.EdgeParams, rep.NodeClusters, rep.EdgeClusters)
			}
			if r != nil && r.epochDue {
				r.epochDue = false
				pt.do("core.finalize", kindReplay, func() { infer.Finalize(pipes[i].Schema(), finalizeOpts) })
			}
			if s.checkpoint {
				slots[i]++
				if pt.do("core.checkpoint", kindOwn, func() { err = save(i) }); err != nil {
					return nil, 0, err
				}
			}
		}
	}

	var def *schema.Def
	var final *schema.Schema
	if shards > 1 {
		pt.do("schema.merge", kindOwn, func() {
			final = schema.NewSchema()
			if cfg.MemBudgetBytes > 0 && !cfg.ExactEvidence {
				final.SetEvidencePolicy(schema.PolicyForBudget(cfg.MemBudgetBytes))
			}
			for _, p := range pipes {
				schema.MergeSchemas(final, p.Schema(), cfg.Theta)
			}
		})
		pt.do("core.finalize", kindOwn, func() { def = infer.Finalize(final, finalizeOpts) })
	} else {
		final = pipes[0].Schema()
		pt.do("core.finalize", kindOwn, func() { def = pipes[0].Finalize() })
	}
	var buf bytes.Buffer
	if pt.do("serialize.json", kindOwn, func() { err = serialize.WriteJSON(&buf, def) }); err != nil {
		return nil, 0, err
	}
	wall := pt.finish()
	if pt.off {
		s.check(out, "untraced loop pass", buf.Bytes())
		return pt, wall, nil
	}
	s.check(out, "traced pass", buf.Bytes())

	for _, r := range reps {
		pt.retrains += r.sess.Stats().Retrains
	}
	pt.jsonBytes = buf.Len()
	pt.evidenceBytes = final.EvidenceBytes()
	return pt, wall, nil
}

// traceStream runs, in turn and all at GOMAXPROCS 1 and depth 1, a pass
// through the workload's own entry point (entry), the replay loop
// untraced, and the replay loop traced, until the deadline (at least
// MinPasses of each). It records the per-layer metrics as medians over
// the traced passes.
func traceStream(s *stream, sc scale, entry func(core.Config) (*pass, error), deadline time.Time, tr *tracer, out *outcome) error {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	cfg := s.cfg
	cfg.PipelineDepth = 1

	series := map[string][]float64{}
	add := func(name string, v float64) { series[name] = append(series[name], v) }
	for n := 0; n < sc.MinPasses || time.Now().Before(deadline); n++ {
		runtime.GC()
		p, err := entry(cfg)
		out.attempted++
		if err != nil {
			out.fail("entry-point pass %d: %v", n, err)
			continue
		}
		s.check(out, fmt.Sprintf("entry-point pass %d", n), p.json)
		add("bench.elements_per_s_1cpu", float64(s.elements)/p.end.Sub(p.pulls.first).Seconds())

		runtime.GC()
		_, untraced, err := replayPass(s, nil, out)
		out.attempted++
		if err != nil {
			return err
		}
		runtime.GC()
		pt, wall, err := replayPass(s, tr, out)
		out.attempted++
		if err != nil {
			return err
		}
		l := pt.layer
		for _, name := range []string{
			"vectorize.vectorize", "vectorize.encode", "lsh.adapt", "lsh.sign", "lsh.group",
			"core.process_batch", "core.finalize", "serialize.json",
		} {
			add(name+"_ms", ms(l[name]))
		}
		// ProcessBatch re-does every replayed step; the rest of it is
		// extract: interning, cluster candidates, the Algorithm 2 merge and
		// epoch diffs, which no public function reaches on their own.
		add("core.extract_ms", ms(l["core.process_batch"]-pt.replay))
		add("vectorize.distinct_record_share", ratio(float64(pt.distinct), float64(pt.signed)))
		add("lsh.prefix_reuse_ratio", ratio(float64(pt.signed-pt.prefixes), float64(pt.signed)))
		add("lsh.adapt_sample_elements", float64(pt.adaptSample))
		add("lsh.clusters", float64(pt.clusters))
		add("embed.retrains", float64(pt.retrains))
		add("serialize.json_bytes", float64(pt.jsonBytes))
		if s.encoded != nil {
			add("pg.decode_ms", ms(l["pg.decode"]))
			add("pg.decode_allocs_per_element", ratio(float64(pt.decodeAllocs), float64(pt.decoded)))
		}
		if s.checkpoint {
			add("core.checkpoint_ms", ms(l["core.checkpoint"]))
			add("core.checkpoint_bytes", float64(pt.checkpointBytes))
		}
		if s.cfg.Shards > 1 {
			add("schema.merge_ms", ms(l["schema.merge"]))
		}
		if s.cfg.DriftPolicy != core.DriftOff {
			add("validate.check_ms", ms(l["validate.check"]))
			add("validate.violations", float64(pt.violations))
		}
		add("schema.evidence_bytes", float64(pt.evidenceBytes))
		add("bench.span_coverage", ratio(float64(pt.covered), float64(wall)))
		add("bench.trace_overhead_frac", float64(wall-pt.replay-pt.probe)/float64(untraced)-1)
	}
	for name, xs := range series {
		out.metrics[name] = median(xs)
	}
	out.notes["traced_passes"] = len(series["bench.span_coverage"])
	out.notes["replay_not_covered"] = "intern, candidates, Algorithm 2 merge and epoch diffs run only inside Pipeline.ProcessBatch and are timed in core.extract_ms"
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
