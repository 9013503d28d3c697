// Package core implements the PG-HIVE schema-discovery pipeline: Algorithm 1
// (batch loop: preprocess → LSH clustering → type extraction → optional
// post-processing) and Algorithm 2 (extracting and merging types), including
// the incremental mode in which every batch's clusters are merged into the
// running schema under the monotone rules of §4.6.
package core

import (
	"runtime"
	"sync"

	"pghive/internal/align"
	"pghive/internal/embed"
	"pghive/internal/lsh"
	"pghive/internal/obs"
	"pghive/internal/schema"
	"pghive/internal/vectorize"
)

// Method selects the LSH clustering family (§4.2).
type Method uint8

// Clustering methods.
const (
	// MethodELSH clusters the hybrid embedding+indicator vectors with
	// Euclidean (p-stable) LSH.
	MethodELSH Method = iota
	// MethodMinHash clusters the token-set representation with MinHash.
	MethodMinHash
)

// String names the method the way the paper does.
func (m Method) String() string {
	switch m {
	case MethodELSH:
		return "PG-HIVE-ELSH"
	case MethodMinHash:
		return "PG-HIVE-MinHash"
	default:
		return "PG-HIVE-?"
	}
}

// Config controls a discovery run. The zero value plus DefaultConfig's
// fields reproduce the paper's configuration: adaptive LSH parameters,
// θ = 0.9, 10 %/≥1000 data-type sampling.
type Config struct {
	// Method is the clustering family.
	Method Method
	// Theta is the Jaccard merge threshold θ of Algorithm 2.
	Theta float64
	// Embedding configures the per-batch Word2Vec label model.
	Embedding embed.Config
	// LabelWeight scales the embedding block relative to the binary
	// property indicators (0 means the vectorizer default).
	LabelWeight float64
	// SemanticLabels trains the label embedding on multi-label
	// co-occurrence so overlapping label sets attract (off by default;
	// see vectorize.Config.SemanticLabels).
	SemanticLabels bool
	// AlignLabels enables label alignment for integration scenarios (the
	// paper's future-work item (c)): label variants such as Organization /
	// Organisation are canonicalized before clustering, so sources with
	// inconsistent label conventions land in shared types. Uses
	// AlignThreshold over AlignSimilarity.
	AlignLabels bool
	// AlignThreshold is the similarity threshold for label alignment
	// (0 means 0.8).
	AlignThreshold float64
	// AlignSimilarity overrides the label similarity function (nil means
	// normalized edit distance over folded labels; an embedding- or
	// LLM-backed scorer can drop in).
	AlignSimilarity align.Similarity
	// NodeParams and EdgeParams override the adaptive LSH parameters when
	// non-nil (the paper's manual mode; Figure 6 sweeps these).
	NodeParams *lsh.Params
	EdgeParams *lsh.Params
	// MinHashRows, when > 0, switches MinHash clustering to banded mode
	// with that many rows per band; 0 groups by the full signature.
	MinHashRows int
	// SampleDatatypes makes Finalize use the sample-based data-type
	// inference (the paper's optional flag, §4.4).
	SampleDatatypes bool
	// Participation enables edge lower-bound analysis in Finalize: the
	// cardinality lower bound upgrades from 0 to 1 when every source-type
	// instance carries such an edge (the paper's §4.4 future-work step).
	Participation bool
	// SampleFraction and SampleMin control the data-type sample: every
	// property's first SampleMin observations are always sampled, then a
	// SampleFraction share of the rest (paper: 10 %, at least 1000).
	SampleFraction float64
	SampleMin      int
	// TrackMembers records per-type member element IDs (needed by the
	// evaluation harness to compute F1*; costs memory).
	TrackMembers bool
	// DenseSignatures disables the factored signature kernels and hashes
	// every element through the dense O(T·(d+K)) loops over materialized
	// hybrid vectors — the pre-factoring behaviour, retained for A/B
	// benchmarking (pghive-bench -exp lsh) and as an escape hatch. The
	// default factored path exploits the shared-prefix/sparse-suffix
	// structure of §4.1's vectors: per-(label-token, table) projection dots
	// are cached and each element costs O(T·nnz); MinHash signatures are
	// memoized per distinct element record. Both paths produce bit-identical
	// signatures and therefore byte-identical schemas
	// (TestFactoredMatchesDense), so this knob — like Parallelism and
	// PipelineDepth — is excluded from the checkpoint fingerprint.
	DenseSignatures bool
	// Parallelism bounds worker goroutines for vectorization and hashing;
	// 0 means GOMAXPROCS.
	Parallelism int
	// Telemetry receives execution events during the run: per-stage spans,
	// counters (batches, elements, clusters, retries, cache hits, checkpoint
	// bytes) and LSH bucket-occupancy histograms. nil disables
	// instrumentation — the no-op path costs zero allocations and is pinned
	// by a benchmark. The sink must be safe for concurrent use: the
	// overlapped engine emits from several goroutines. Execution-only: like
	// Parallelism and PipelineDepth it never affects the discovered schema
	// and is excluded from the checkpoint fingerprint.
	Telemetry obs.Sink
	// Shards partitions the element stream across that many independent
	// discovery pipelines — each with its own schema, sampler and embedding
	// session — whose partial schemas are merged when the stream ends
	// (DiscoverSharded/DiscoverShardedFT). Elements are assigned to shards by
	// a fixed hash of their IDs (pg.ShardOf), so the partition is
	// deterministic and batch-boundary independent. 0 or 1 runs the single
	// unsharded pipeline and produces byte-identical output to Discover.
	// Values > 1 produce a deterministic schema for a fixed (Seed, Shards),
	// but not byte-identical to the serial run: each shard clusters and
	// samples only its own elements, so abstract-type composition and
	// SampleKinds can differ (see DESIGN.md §11). Not part of the checkpoint
	// fingerprint — sharded checkpoints use their own container format
	// (PGCK8) that records the shard count explicitly.
	Shards int
	// MemBudgetBytes caps the evidence layer's retained memory. 0 (the
	// default) keeps today's exact accumulators: per-endpoint degree
	// counters and per-property value hash sets, whose memory grows with
	// the number of distinct endpoints and values. A positive budget
	// switches the schema to sketch-backed evidence (HyperLogLog distinct
	// counts, count-min + space-saving degree maxima) sized by
	// schema.PolicyForBudget, so retained evidence memory is constant in
	// stream size. Sketched evidence changes what the constraints see —
	// uniqueness and max-degree become statistical estimates — so the
	// budget is part of the checkpoint fingerprint.
	MemBudgetBytes int64
	// ExactEvidence is the escape hatch: with a budget set it forces the
	// exact accumulators anyway (byte-identical output to an unbudgeted
	// run), so the budget then only governs the ingest spill thresholds.
	ExactEvidence bool
	// DriftPolicy enables streaming conformance checking: every batch is
	// validated against the schema of the current epoch at the serialized
	// extract point, before its candidates merge, and classified violations
	// flow out as obs drift counters and drift-log records (see drift.go).
	// DriftOff (the zero value) disables validation entirely. Evolve and
	// alert are execution-only — the discovered schema is byte-identical to
	// a validator-free run — so they are excluded from the checkpoint
	// fingerprint; quarantine withholds violating batches from the merge and
	// therefore fingerprints (together with EpochInterval).
	DriftPolicy DriftPolicy
	// EpochInterval is the epoch window length: every that many batches
	// through the extract gate (merged or quarantined), the engine snapshots
	// the finalized schema, diffs it against the previous epoch and installs
	// it as the new validation target. 0 means DefaultEpochInterval.
	EpochInterval int
	// DriftLog, when non-nil, receives JSONL drift records: classified
	// violation batches (under alert/quarantine) and epoch diffs. Shared by
	// every shard of a sharded run; execution-only.
	DriftLog *DriftLog
	// OnEpoch, when non-nil, receives an EpochSnapshot at every epoch
	// boundary — the resident schema service's publication hook. Setting it
	// activates the epoch clock even under DriftPolicy off (snapshot + diff
	// every EpochInterval batches, no validation), so a server can publish
	// copy-on-write schema epochs without paying for conformance checking.
	// The hook runs at the serialized extract point and must return quickly;
	// the snapshot Def is immutable and safe to retain. Execution-only: it
	// observes the schema but never feeds back, so — like Telemetry — it is
	// excluded from the checkpoint fingerprint. In a sharded run each shard
	// fires the hook for its own partial schema (Shard tags the origin);
	// whole-fleet publication goes through the checkpoint layer instead
	// (see internal/serve).
	OnEpoch func(EpochSnapshot)
	// driftShard tags this pipeline's drift-log records with its shard index
	// (set by shardConfig; 0 for unsharded runs).
	driftShard int
	// PipelineDepth controls the overlapped batch execution engine used by
	// Discover/Drain. Values > 1 allow that many batches in flight at once:
	// a prefetch goroutine keeps the next batch loaded while the current
	// one computes, preprocessing and LSH clustering of batch i+1 overlap
	// candidate-building/extraction of batch i, and node and edge
	// clustering of the same batch run concurrently. Extraction into the
	// shared schema stays serialized in batch order, so the finalized
	// schema is byte-identical to a serial run with the same seed (the
	// monotone guarantee S_i ⊑ S_{i+1} is scheduling-independent).
	// 1 forces the fully serial path; 0 means DefaultPipelineDepth.
	PipelineDepth int
	// Seed drives all randomness.
	Seed int64
}

// DefaultPipelineDepth is the batch-overlap depth used when
// Config.PipelineDepth is 0: deep enough to keep the load, cluster and
// extract stages all busy, shallow enough to bound resident batches.
const DefaultPipelineDepth = 4

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		Method:         MethodELSH,
		Theta:          0.9,
		Embedding:      embed.DefaultConfig(),
		SampleFraction: 0.10,
		SampleMin:      1000,
		Seed:           1,
	}
}

func (c Config) withDefaults() Config {
	if c.Theta <= 0 {
		c.Theta = 0.9
	}
	if c.SampleFraction <= 0 {
		c.SampleFraction = 0.10
	}
	if c.SampleMin <= 0 {
		c.SampleMin = 1000
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = DefaultPipelineDepth
	}
	if c.EpochInterval <= 0 {
		c.EpochInterval = DefaultEpochInterval
	}
	return c
}

// evidencePolicy derives the schema evidence policy from the memory budget:
// nil (exact evidence, today's behaviour) when no budget is set or the
// -exact-evidence escape hatch is on, otherwise the sketch parameters
// PolicyForBudget picks for the budget tier.
func (c Config) evidencePolicy() *schema.EvidencePolicy {
	if c.MemBudgetBytes <= 0 || c.ExactEvidence {
		return nil
	}
	return schema.PolicyForBudget(c.MemBudgetBytes)
}

func (c Config) vectorizeConfig() vectorize.Config {
	vc := vectorize.Config{
		Embedding:      c.Embedding,
		LabelWeight:    c.LabelWeight,
		SemanticLabels: c.SemanticLabels,
	}
	if vc.Embedding.Dim == 0 {
		// Leave Dim zero: the vectorizer picks it from the batch's label
		// vocabulary. Fill the remaining hyperparameters with defaults.
		def := embed.DefaultConfig()
		def.Dim = 0
		def.Seed = c.Seed
		vc.Embedding = def
	}
	return vc
}

// parmap runs f(i) for i in [0, n) across at most workers goroutines.
// Results written to index-disjoint slots keep the computation
// deterministic.
func parmap(n, workers int, f func(i int)) {
	parmapChunks(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}

// parmapChunks partitions [0, n) into at most workers contiguous ranges and
// runs f(lo, hi) on each, one range per goroutine — the chunked variant for
// workers that carry per-goroutine scratch (e.g. a factored-LSH hasher).
func parmapChunks(n, workers int, f func(lo, hi int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		f(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
