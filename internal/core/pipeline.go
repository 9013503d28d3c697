package core

import (
	"sync/atomic"
	"time"

	"pghive/internal/align"
	"pghive/internal/infer"
	"pghive/internal/lsh"
	"pghive/internal/obs"
	"pghive/internal/pg"
	"pghive/internal/schema"
	"pghive/internal/vectorize"
)

// BatchReport records what happened while processing one batch: sizes,
// chosen LSH parameters, cluster counts and per-phase wall-clock durations
// (the timings behind Figures 5 and 7). Load and Wall are recorded even
// without a telemetry sink, so throughput reporting never requires one.
type BatchReport struct {
	Batch        int
	Nodes, Edges int
	NodeClusters int
	EdgeClusters int
	NodeParams   lsh.Params
	EdgeParams   lsh.Params
	// Load is the time spent pulling this batch from the source (under the
	// overlapped engine: the stall waiting on the prefetcher).
	Load       time.Duration
	Preprocess time.Duration
	Cluster    time.Duration
	Extract    time.Duration
	// Wall is the real elapsed time from the batch's pull to the end of its
	// extraction. Under the overlapped engine it includes queue waits, so
	// Wall ≥ Load + Preprocess + Cluster + Extract and the per-batch Wall
	// values of concurrent batches overlap.
	Wall time.Duration
	// Shard is the discovery shard that processed this batch (0 for
	// unsharded runs). Stamped by the shard-merge driver; memory-only, not
	// serialized into checkpoints (each shard checkpoints its own reports,
	// whose index already is the shard).
	Shard int
}

// Total returns the batch's end-to-end processing time (CPU-stage sum,
// excluding load and queue waits).
func (r BatchReport) Total() time.Duration { return r.Preprocess + r.Cluster + r.Extract }

// Throughput returns the batch's elements per second of wall-clock time
// (0 when Wall was not recorded).
func (r BatchReport) Throughput() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Nodes+r.Edges) / r.Wall.Seconds()
}

// Pipeline is an incremental PG-HIVE discovery session. Feed it batches
// with ProcessBatch; the schema grows monotonically (S_i ⊑ S_{i+1}).
type Pipeline struct {
	cfg     Config
	schema  *schema.Schema
	sampler *sampler
	aligner *align.Aligner
	session *vectorize.Session
	reports []BatchReport
	// clusterEst tracks the cluster count each kind produced on the most
	// recent batch — the presize hint for the next batch's signature
	// bucket map (atomic: cluster stages of different batches may run
	// concurrently under the overlapped engine).
	clusterEst [2]atomic.Int64
	instr      obs.Instr
	// lastSess is the session-stats frontier already emitted to the sink;
	// preprocess emits per-batch deltas against it (preprocess is
	// serialized, so no locking is needed).
	lastSess vectorize.SessionStats
	// drift is the streaming conformance machinery (nil when
	// Config.DriftPolicy is DriftOff); driftSkipped accumulates the batches
	// the quarantine policy withheld. Both are touched only from the
	// serialized extract point, so no locking is needed — in particular
	// driftSkipped is kept separate from the fault puller's skip list, which
	// lives on the prep goroutine.
	drift        *driftState
	driftSkipped []SkipReport
}

// NewPipeline starts a discovery session.
func NewPipeline(cfg Config) *Pipeline {
	cfg = cfg.withDefaults()
	p := &Pipeline{
		cfg:     cfg,
		schema:  schema.NewSchema(),
		sampler: newSampler(cfg.SampleFraction, cfg.SampleMin, cfg.Seed),
		session: vectorize.NewSession(cfg.vectorizeConfig()),
		instr:   obs.NewInstr(cfg.Telemetry),
	}
	p.schema.SetEvidencePolicy(cfg.evidencePolicy())
	p.drift = newDriftState(cfg)
	if cfg.AlignLabels {
		// The aligner persists across batches so alignment classes stay
		// stable throughout an incremental run.
		p.aligner = align.NewAligner(cfg.AlignSimilarity, cfg.AlignThreshold)
	}
	return p
}

// Aligner exposes the label aligner (nil unless AlignLabels is set), so
// callers can report the discovered alignment classes.
func (p *Pipeline) Aligner() *align.Aligner { return p.aligner }

// alignBatch rewrites label slices through the aligner without mutating
// the caller's data (label slices alias graph storage).
func (p *Pipeline) alignBatch(b *pg.Batch) *pg.Batch {
	if p.aligner == nil {
		return b
	}
	out := &pg.Batch{
		Nodes: make([]pg.NodeRecord, len(b.Nodes)),
		Edges: make([]pg.EdgeRecord, len(b.Edges)),
	}
	copy(out.Nodes, b.Nodes)
	copy(out.Edges, b.Edges)
	for i := range out.Nodes {
		out.Nodes[i].Labels = p.aligner.CanonicalSet(out.Nodes[i].Labels)
	}
	for i := range out.Edges {
		out.Edges[i].Labels = p.aligner.CanonicalSet(out.Edges[i].Labels)
		out.Edges[i].SrcLabels = p.aligner.CanonicalSet(out.Edges[i].SrcLabels)
		out.Edges[i].DstLabels = p.aligner.CanonicalSet(out.Edges[i].DstLabels)
	}
	return out
}

// Schema returns the evolving schema (do not mutate during processing).
func (p *Pipeline) Schema() *schema.Schema { return p.schema }

// Reports returns one report per processed batch.
func (p *Pipeline) Reports() []BatchReport { return p.reports }

// Config returns the effective configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// staged is a batch after the preprocess stage: aligned, vectorized, and
// ready to cluster. seq is the absolute batch index within the run (the
// Batch the report will carry once extracted in order).
type staged struct {
	seq    int
	b      *pg.Batch
	vz     *vectorize.Vectorizer
	start  time.Time // preprocess begin; anchors the report's Wall
	report BatchReport
}

// computed is a batch after the cluster stage, awaiting ordered extraction.
type computed struct {
	seq          int
	b            *pg.Batch
	start        time.Time
	nodeClusters []lsh.Cluster
	edgeClusters []lsh.Cluster
	report       BatchReport
}

// slot maps a batch sequence number onto its pipeline-depth slot — the
// trace track the batch's spans render on.
func (p *Pipeline) slot(seq int) int {
	if d := p.cfg.PipelineDepth; d > 1 {
		return seq % d
	}
	return 0
}

// ProcessBatch runs the main pipeline of Algorithm 1 (lines 3-6) on one
// batch: preprocess into vectors/sets, LSH-cluster nodes and edges, build
// cluster representatives, and merge them into the schema via Algorithm 2.
// Stages run serially; Drain overlaps them across batches when
// Config.PipelineDepth > 1.
func (p *Pipeline) ProcessBatch(b *pg.Batch) BatchReport {
	return p.processSerial(b, p.nextSeq(), 0)
}

// nextSeq is the next batch sequence number for serial feeding: processed
// batches plus any the drift policy quarantined (which consumed a sequence
// number but produced no report).
func (p *Pipeline) nextSeq() int {
	n := len(p.reports)
	if p.drift != nil {
		n += p.drift.quarantined
	}
	return n
}

// processSerial is ProcessBatch with the sequence number and the
// already-measured load time threaded through (Drain's serial path measures
// the source pull and tracks sequence numbers across quarantined batches).
func (p *Pipeline) processSerial(b *pg.Batch, seq int, load time.Duration) BatchReport {
	st := p.preprocess(b, seq)
	st.report.Load = load
	return p.extractChecked(p.clusterSerial(st), -1)
}

// clusterSerial runs the cluster stage for one staged batch on the calling
// goroutine, node kind then edge kind — the strictly serial counterpart of
// the engine's clusterStage (which see), shared by ProcessBatch and the
// depth-1 DrainFT path.
func (p *Pipeline) clusterSerial(st staged) computed {
	c := computed{seq: st.seq, b: st.b, start: st.start, report: st.report}
	start := time.Now()
	c.nodeClusters, c.report.NodeParams = p.clusterKind(nodeSpec(st.b, st.vz), false)
	c.edgeClusters, c.report.EdgeParams = p.clusterKind(edgeSpec(st.b, st.vz), false)
	c.report.Cluster = time.Since(start)
	c.report.NodeClusters = len(c.nodeClusters)
	c.report.EdgeClusters = len(c.edgeClusters)
	p.clusterSpan(&c, start)
	return c
}

// clusterSpan emits the cluster-stage span for one computed batch.
func (p *Pipeline) clusterSpan(c *computed, start time.Time) {
	p.instr.Span(obs.Span{
		Stage: obs.StageCluster, Batch: c.seq, Slot: p.slot(c.seq),
		Start: start, Duration: c.report.Cluster,
		Elements: c.report.Nodes + c.report.Edges,
	})
}

// loadSpan emits the load-stage span for one pulled batch.
func (p *Pipeline) loadSpan(seq int, b *pg.Batch, start time.Time, d time.Duration) {
	p.instr.Span(obs.Span{
		Stage: obs.StageLoad, Batch: seq, Slot: p.slot(seq),
		Start: start, Duration: d,
		Elements: len(b.Nodes) + len(b.Edges),
	})
}

// preprocess aligns and vectorizes one batch. Calls must happen in batch
// order: the aligner and the embedding session are order-dependent.
func (p *Pipeline) preprocess(b *pg.Batch, seq int) staged {
	st := staged{seq: seq, report: BatchReport{
		Nodes: len(b.Nodes),
		Edges: len(b.Edges),
	}}
	start := time.Now()
	st.start = start
	st.b = p.alignBatch(b)
	st.vz = p.session.Vectorize(st.b)
	st.report.Preprocess = time.Since(start)
	if p.instr.Enabled() {
		ss := p.session.Stats()
		p.instr.Add(obs.CtrEmbedTokensReused, ss.TokensReused-p.lastSess.TokensReused)
		p.instr.Add(obs.CtrEmbedTokensTrained, ss.TokensTrained-p.lastSess.TokensTrained)
		p.instr.Add(obs.CtrEmbedRetrains, ss.Retrains-p.lastSess.Retrains)
		p.lastSess = ss
		p.instr.Span(obs.Span{
			Stage: obs.StagePreprocess, Batch: seq, Slot: p.slot(seq),
			Start: start, Duration: st.report.Preprocess,
			Elements: st.report.Nodes + st.report.Edges,
		})
	}
	return st
}

// extract builds cluster representatives and merges them into the schema
// (Algorithm 2). It mutates shared, order-dependent state (schema, sampler)
// and must be called in batch order.
func (p *Pipeline) extract(c computed) BatchReport {
	c.report.Batch = len(p.reports)
	start := time.Now()
	p.internBatch(c.b)
	nodeCands := p.nodeCandidates(c.b, c.nodeClusters)
	edgeCands := p.edgeCandidates(c.b, c.edgeClusters)
	typesBefore := 0
	if p.instr.Enabled() {
		typesBefore = len(p.schema.Types(schema.NodeKind)) + len(p.schema.Types(schema.EdgeKind))
	}
	ExtractTypes(p.schema, schema.NodeKind, nodeCands, p.cfg.Theta)
	ExtractTypes(p.schema, schema.EdgeKind, edgeCands, p.cfg.Theta)
	c.report.Extract = time.Since(start)
	if !c.start.IsZero() {
		// Wall spans the batch's pull through its extraction: the load time
		// plus everything since preprocess began (including queue waits
		// under the overlapped engine).
		c.report.Wall = c.report.Load + time.Since(c.start)
	}
	p.reports = append(p.reports, c.report)
	if p.instr.Enabled() {
		created := len(p.schema.Types(schema.NodeKind)) + len(p.schema.Types(schema.EdgeKind)) - typesBefore
		p.instr.Add(obs.CtrTypesCreated, uint64(created))
		p.instr.Add(obs.CtrTypesMerged, uint64(len(nodeCands)+len(edgeCands)-created))
		p.instr.Add(obs.CtrBatches, 1)
		p.instr.Add(obs.CtrNodes, uint64(c.report.Nodes))
		p.instr.Add(obs.CtrEdges, uint64(c.report.Edges))
		p.instr.Add(obs.CtrNodeClusters, uint64(c.report.NodeClusters))
		p.instr.Add(obs.CtrEdgeClusters, uint64(c.report.EdgeClusters))
		p.instr.Span(obs.Span{
			Stage: obs.StageExtract, Batch: c.report.Batch, Slot: p.slot(c.seq),
			Start: start, Duration: c.report.Extract,
			Elements: c.report.Nodes + c.report.Edges,
		})
		if p.cfg.MemBudgetBytes > 0 {
			p.instr.Gauge(obs.GaugeMemBudgetBytes, uint64(p.cfg.MemBudgetBytes))
		}
		p.instr.Gauge(obs.GaugeEvidenceBytes, uint64(p.schema.EvidenceBytes()))
	}
	return c.report
}

// kindSpec parameterizes clustering over the element kind, deduplicating
// the former clusterNodes/clusterEdges bodies. Seeds are offset per kind so
// node and edge hash families stay independent.
type kindSpec struct {
	n           int
	isEdge      bool
	manual      *lsh.Params // Config.NodeParams / Config.EdgeParams
	dim         int
	labelTokens int
	vec         func(i int) []float64
	vecInto     func(i int, dst []float64)
	sets        func() [][]uint64
	enc         func() *vectorize.Encoding
}

func nodeSpec(b *pg.Batch, vz *vectorize.Vectorizer) kindSpec {
	return kindSpec{
		n:           len(b.Nodes),
		dim:         vz.NodeDim(),
		labelTokens: vz.LabelTokens(),
		vec:         func(i int) []float64 { return vz.NodeVector(&b.Nodes[i]) },
		vecInto:     func(i int, dst []float64) { vz.NodeVectorInto(&b.Nodes[i], dst) },
		sets:        func() [][]uint64 { return vz.NodeSets(b) },
		enc:         func() *vectorize.Encoding { return vz.NodeEncoding(b) },
	}
}

func edgeSpec(b *pg.Batch, vz *vectorize.Vectorizer) kindSpec {
	return kindSpec{
		n:           len(b.Edges),
		isEdge:      true,
		dim:         vz.EdgeDim(),
		labelTokens: vz.LabelTokens(),
		vec:         func(i int) []float64 { return vz.EdgeVector(&b.Edges[i]) },
		vecInto:     func(i int, dst []float64) { vz.EdgeVectorInto(&b.Edges[i], dst) },
		sets:        func() [][]uint64 { return vz.EdgeSets(b) },
		enc:         func() *vectorize.Encoding { return vz.EdgeEncoding(b) },
	}
}

// clusterKind clusters one element kind with the configured method and
// returns the clusters plus the parameters used. It only reads the
// Vectorizer snapshot captured in the spec, so different kinds — and
// different batches — may cluster concurrently. With arena set, element
// vectors are rendered into one contiguous allocation.
func (p *Pipeline) clusterKind(spec kindSpec, arena bool) ([]lsh.Cluster, lsh.Params) {
	clusters, params := p.clusterKindInner(spec, arena)
	p.clusterEst[kindIndex(spec.isEdge)].Store(int64(len(clusters)))
	if p.instr.Enabled() && len(clusters) > 0 {
		hist := obs.HistNodeOccupancy
		if spec.isEdge {
			hist = obs.HistEdgeOccupancy
		}
		for _, c := range clusters {
			p.instr.Observe(hist, uint64(len(c.Members)))
		}
	}
	return clusters, params
}

func kindIndex(isEdge bool) int {
	if isEdge {
		return 1
	}
	return 0
}

// bucketHint returns the presize hint for a signature bucket map: the
// cluster count the kind produced on the previous batch plus headroom.
// Batches of one stream keep yielding roughly the same clusters, so this
// tracks the true bucket count far better than the n/4+1 default; 0 (first
// batch) falls back to that default.
func (p *Pipeline) bucketHint(isEdge bool) int {
	est := int(p.clusterEst[kindIndex(isEdge)].Load())
	if est <= 0 {
		return 0
	}
	return est + est/8 + 16
}

// clusterKindInner runs one kind's cluster step. The dense reference path
// (Config.DenseSignatures) renders every element vector and adapts with
// lsh.AdaptParamsAll, the test oracle. The factored kernels build the kind's
// Encoding once and deduplicate its records in one pass whenever adaptation
// or MinHash needs them: adaptation then renders one dense vector per
// distinct sampled record (adaptRecords), and factored MinHash signs once
// per distinct record. Both yield bit-identical parameters and clusters to
// the dense path.
func (p *Pipeline) clusterKindInner(spec kindSpec, arena bool) ([]lsh.Cluster, lsh.Params) {
	n := spec.n
	if n == 0 {
		return nil, lsh.Params{}
	}
	manual := p.cfg.NodeParams
	mhSeed, adaptSeed, famSeed := int64(101), int64(11), int64(102)
	if spec.isEdge {
		manual = p.cfg.EdgeParams
		mhSeed, adaptSeed, famSeed = 201, 12, 202
	}
	adaptSeed += p.cfg.Seed
	if p.cfg.DenseSignatures {
		return p.clusterKindDense(spec, arena, manual, adaptSeed, p.cfg.Seed+mhSeed, p.cfg.Seed+famSeed)
	}

	enc := spec.enc()
	var recID, reps []int
	if manual == nil || p.cfg.Method == MethodMinHash {
		recID, reps = enc.DistinctRecords()
	}
	params := manual
	if params == nil {
		adapted := adaptRecords(spec, recID, reps, adaptSeed)
		params = &adapted
	}
	if p.cfg.Method == MethodMinHash {
		mh := lsh.NewMinHash(params.Tables, p.cfg.Seed+mhSeed)
		return p.clusterMinHashFactored(spec, enc, recID, reps, mh), *params
	}
	fam := lsh.NewELSH(spec.dim, params.Bucket, params.Tables, p.cfg.Seed+famSeed)
	fk := lsh.NewFactoredELSH(fam, enc.PrefixDim, enc.Prefixes)
	// The factored kernel computes one projection-dot set per distinct
	// label prefix; every further element sharing that prefix is a hit.
	p.instr.Add(obs.CtrPrefixDotsComputed, uint64(len(enc.Prefixes)))
	p.instr.Add(obs.CtrPrefixDotHits, uint64(n-len(enc.Prefixes)))
	hashes := make([]uint64, n)
	parmapChunks(n, p.cfg.Parallelism, func(lo, hi int) {
		h := fk.Hasher()
		for i := lo; i < hi; i++ {
			r := enc.Records[i]
			hashes[i] = h.SignatureHash(r.TokenID, r.Props)
		}
	})
	return lsh.GroupByHashSized(hashes, p.bucketHint(spec.isEdge)), *params
}

// clusterKindDense is the reference cluster step behind
// Config.DenseSignatures: every element is rendered (as a vector or a token
// set) and hashed on its own.
func (p *Pipeline) clusterKindDense(spec kindSpec, arena bool, manual *lsh.Params, adaptSeed, mhSeed, famSeed int64) ([]lsh.Cluster, lsh.Params) {
	n := spec.n
	params := manual
	var vectors [][]float64
	if params == nil || p.cfg.Method != MethodMinHash {
		vectors = p.renderVectors(spec, arena)
	}
	if params == nil {
		adapted := lsh.AdaptParamsAll(vectors, spec.labelTokens, spec.isEdge, adaptSeed)
		params = &adapted
	}
	var hash func(i int) uint64
	if p.cfg.Method == MethodMinHash {
		mh := lsh.NewMinHash(params.Tables, mhSeed)
		sets := spec.sets()
		if p.cfg.MinHashRows > 0 {
			return mh.ClusterBanded(sets, p.cfg.MinHashRows), *params
		}
		hash = func(i int) uint64 { return mh.SignatureHash(sets[i]) }
	} else {
		fam := lsh.NewELSH(spec.dim, params.Bucket, params.Tables, famSeed)
		hash = func(i int) uint64 { return fam.SignatureHash(vectors[i]) }
	}
	hashes := make([]uint64, n)
	parmap(n, p.cfg.Parallelism, func(i int) { hashes[i] = hash(i) })
	return lsh.GroupByHashSized(hashes, p.bucketHint(spec.isEdge)), *params
}

// adaptRecords adapts the kind's LSH parameters on the paper's µ sample in
// record form: recID and reps are the kind's Encoding.DistinctRecords. It
// draws the same sample indexes as lsh.AdaptParamsAll, renders one dense
// vector per distinct record the sample touches (the record key pins the
// vector, so any element of the record renders the same floats), and hands
// the per-sample record ids to lsh.AdaptParamsRecords — the parameters are
// bit-identical to adapting on every sampled element's own vector.
func adaptRecords(spec kindSpec, recID, reps []int, seed int64) lsh.Params {
	idx := lsh.SampleIndexes(spec.n, seed)
	// local[id] is 1 + the sample-local id of distinct record id (0: not
	// yet seen in the sample).
	local := make([]int, len(reps))
	rec := make([]int, len(idx))
	elems := make([]int, 0, len(reps))
	for k, j := range idx {
		id := recID[j]
		if local[id] == 0 {
			elems = append(elems, reps[id])
			local[id] = len(elems)
		}
		rec[k] = local[id] - 1
	}
	backing := make([]float64, len(elems)*spec.dim)
	distinct := make([][]float64, len(elems))
	for i, e := range elems {
		v := backing[i*spec.dim : (i+1)*spec.dim : (i+1)*spec.dim]
		spec.vecInto(e, v)
		distinct[i] = v
	}
	return lsh.AdaptParamsRecords(distinct, rec, spec.n, spec.labelTokens, spec.isEdge, seed)
}

// clusterMinHashFactored is the factored MinHash path: elements sharing a
// record (prefix tokens + property-index set — the common case, most
// elements share a type) are deduplicated (recID, reps from
// Encoding.DistinctRecords) and each distinct record's signature is computed
// once. Exact-key dedup keeps the per-element hashes bit-identical to the
// dense per-element loop.
func (p *Pipeline) clusterMinHashFactored(spec kindSpec, enc *vectorize.Encoding, recID, reps []int, mh *lsh.MinHash) []lsh.Cluster {
	// One signature per distinct record; every duplicate record is a hit.
	p.instr.Add(obs.CtrRecordSigsComputed, uint64(len(reps)))
	p.instr.Add(obs.CtrRecordSigHits, uint64(spec.n-len(reps)))
	if p.cfg.MinHashRows > 0 {
		distinct := make([][]uint64, len(reps))
		parmapChunks(len(reps), p.cfg.Parallelism, func(lo, hi int) {
			var set []uint64
			for j := lo; j < hi; j++ {
				set = enc.AppendSet(set[:0], reps[j])
				distinct[j] = mh.Signature(set)
			}
		})
		sigs := make([][]uint64, spec.n)
		for i, id := range recID {
			sigs[i] = distinct[id]
		}
		return mh.ClusterBandedSignatures(sigs, p.cfg.MinHashRows)
	}
	distinct := make([]uint64, len(reps))
	parmapChunks(len(reps), p.cfg.Parallelism, func(lo, hi int) {
		var set []uint64
		for j := lo; j < hi; j++ {
			set = enc.AppendSet(set[:0], reps[j])
			distinct[j] = mh.SignatureHash(set)
		}
	})
	hashes := make([]uint64, spec.n)
	for i, id := range recID {
		hashes[i] = distinct[id]
	}
	return lsh.GroupByHashSized(hashes, p.bucketHint(spec.isEdge))
}

// renderVectors materializes every element vector of one kind, either as one
// allocation per record (the serial path's historical pattern) or sliced out
// of a single contiguous arena — same float values, far fewer allocations
// and much less GC pressure on large batches.
func (p *Pipeline) renderVectors(spec kindSpec, arena bool) [][]float64 {
	vectors := make([][]float64, spec.n)
	if arena && spec.dim > 0 {
		backing := make([]float64, spec.n*spec.dim)
		for i := range vectors {
			vectors[i] = backing[i*spec.dim : (i+1)*spec.dim : (i+1)*spec.dim]
		}
		parmap(spec.n, p.cfg.Parallelism, func(i int) { spec.vecInto(i, vectors[i]) })
		return vectors
	}
	parmap(spec.n, p.cfg.Parallelism, func(i int) { vectors[i] = spec.vec(i) })
	return vectors
}

// internBatch pre-interns every label, property key and endpoint ID the
// batch's candidate builders will touch. extract is serialized in batch
// order, so interning here is single-threaded — ID assignment is
// deterministic in stream order — and the parallel candidate observers
// below only perform read-only symtab lookups (Intern hits on every call),
// making the shared table race-free without locking.
func (p *Pipeline) internBatch(b *pg.Batch) {
	tab := p.schema.Tab
	// Under a sketched degree policy endpoint IDs are folded straight into
	// the sketches keyed by their raw global values, so the symtab endpoint
	// table — the dominant retained allocation on endpoint-heavy streams —
	// is never populated.
	internEps := true
	if pol := tab.Evidence(); pol != nil && pol.SketchDegrees {
		internEps = false
	}
	for i := range b.Nodes {
		n := &b.Nodes[i]
		for _, l := range n.Labels {
			tab.Intern(l)
		}
		for k := range n.Props {
			tab.Intern(k)
		}
	}
	for i := range b.Edges {
		e := &b.Edges[i]
		for _, l := range e.Labels {
			tab.Intern(l)
		}
		for _, l := range e.SrcLabels {
			tab.Intern(l)
		}
		for _, l := range e.DstLabels {
			tab.Intern(l)
		}
		for k := range e.Props {
			tab.Intern(k)
		}
		if internEps {
			tab.InternEp(e.Src)
			tab.InternEp(e.Dst)
		}
	}
}

// nodeCandidates turns node clusters into candidate types (cluster
// representatives, §4.2): labels and property keys are unioned over the
// members, and per-property evidence is accumulated. The batch must have
// been pre-interned (internBatch), so the parallel observers only read the
// symtab.
func (p *Pipeline) nodeCandidates(b *pg.Batch, clusters []lsh.Cluster) []*schema.Type {
	out := make([]*schema.Type, len(clusters))
	parmap(len(clusters), p.cfg.Parallelism, func(ci int) {
		t := p.schema.NewType(schema.NodeKind)
		for _, i := range clusters[ci].Members {
			t.ObserveNode(&b.Nodes[i], p.sampler.nextNode, p.cfg.TrackMembers)
		}
		out[ci] = t
	})
	return out
}

// edgeCandidates mirrors nodeCandidates for edge clusters.
func (p *Pipeline) edgeCandidates(b *pg.Batch, clusters []lsh.Cluster) []*schema.Type {
	out := make([]*schema.Type, len(clusters))
	parmap(len(clusters), p.cfg.Parallelism, func(ci int) {
		t := p.schema.NewType(schema.EdgeKind)
		for _, i := range clusters[ci].Members {
			t.ObserveEdge(&b.Edges[i], p.sampler.nextEdge, p.cfg.TrackMembers)
		}
		out[ci] = t
	})
	return out
}

// Finalize runs post-processing (Algorithm 1 lines 7-10) and returns the
// finalized schema definition.
func (p *Pipeline) Finalize() *schema.Def {
	p.driftFinalEpoch()
	start := time.Now()
	def := infer.Finalize(p.schema, infer.Options{
		SampleBased:   p.cfg.SampleDatatypes,
		Participation: p.cfg.Participation,
	})
	p.instr.Span(obs.Span{
		Stage: obs.StagePostprocess, Batch: -1,
		Start: start, Duration: time.Since(start),
		Elements: len(def.Nodes) + len(def.Edges),
	})
	return def
}

// Result is the outcome of a full discovery run.
type Result struct {
	// Def is the finalized schema definition.
	Def *schema.Def
	// Schema is the raw accumulated schema with evidence.
	Schema *schema.Schema
	// Reports holds one entry per processed batch.
	Reports []BatchReport
	// Skipped lists the batches quarantined by a fault-tolerant run or by
	// the drift quarantine policy (empty for Discover/DiscoverGraph over
	// infallible sources without drift quarantine).
	Skipped []SkipReport
	// Drift summarizes the run's streaming conformance activity (nil when
	// Config.DriftPolicy is DriftOff).
	Drift *DriftSummary
	// Discovery is the total time spent in the main pipeline (load +
	// preprocess + cluster + extract), the quantity Figure 5 plots.
	Discovery time.Duration
	// PostProcess is the time spent finalizing constraints, data types and
	// cardinalities.
	PostProcess time.Duration
	// Telemetry is the run's aggregated metrics snapshot, present when
	// Config.Telemetry is (or fans out to) an *obs.Registry; nil otherwise.
	Telemetry *obs.Snapshot
}

// telemetrySnapshot captures the registry snapshot behind cfg.Telemetry,
// if any.
func telemetrySnapshot(cfg Config) *obs.Snapshot {
	reg := obs.FindRegistry(cfg.Telemetry)
	if reg == nil {
		return nil
	}
	return reg.Snapshot()
}

// Discover drains the source through a pipeline and finalizes the schema —
// the full Algorithm 1. With Config.PipelineDepth > 1 (the default) the
// overlapped execution engine runs; the result is byte-identical to a
// serial run with the same seed.
func Discover(src pg.Source, cfg Config) *Result {
	p := NewPipeline(cfg)
	start := time.Now()
	p.Drain(src)
	discovery := time.Since(start)

	start = time.Now()
	def := p.Finalize()
	post := time.Since(start)

	return &Result{
		Def:         def,
		Schema:      p.schema,
		Reports:     p.reports,
		Skipped:     p.driftSkipped,
		Drift:       p.driftSummary(),
		Discovery:   discovery,
		PostProcess: post,
		Telemetry:   telemetrySnapshot(p.cfg),
	}
}

// DiscoverGraph is a convenience wrapper: discover the schema of a fully
// loaded graph in a single batch.
func DiscoverGraph(g *pg.Graph, cfg Config) *Result {
	return Discover(pg.NewSliceSource(g.Snapshot()), cfg)
}
