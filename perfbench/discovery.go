package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"pghive/internal/core"
	"pghive/internal/datagen"
	"pghive/internal/pg"
	"pghive/internal/serialize"
)

// stream is a workload's generated batch stream and how the program is run
// over it.
type stream struct {
	batches []*pg.Batch
	// encoded, when set, holds every batch in wire format: the timed path
	// decodes each one with pg.ReadBatch as it pulls it.
	encoded  [][]byte
	elements int
	cfg      core.Config
	// checkpoint runs the fault-tolerant entry point with an in-memory
	// checkpointer that takes every save.
	checkpoint bool
	// ref is the serialized schema every pass must reproduce byte for byte.
	ref []byte
}

func newStream(batches []*pg.Batch, cfg core.Config) *stream {
	s := &stream{batches: batches, cfg: cfg}
	for _, b := range batches {
		s.elements += b.Len()
	}
	return s
}

// encode wire-encodes every batch, so passes decode inside the timed path.
func (s *stream) encode() error {
	s.encoded = make([][]byte, len(s.batches))
	for i, b := range s.batches {
		var buf bytes.Buffer
		w := pg.NewWireWriter(&buf)
		if err := pg.WriteBatch(w, b); err != nil {
			return fmt.Errorf("encode batch %d: %w", i, err)
		}
		if err := w.Flush(); err != nil {
			return fmt.Errorf("encode batch %d: %w", i, err)
		}
		s.encoded[i] = buf.Bytes()
	}
	return nil
}

// pullStamps records when a bench-owned source handed over its first and
// its last batch. Sources are pulled from one goroutine at a time and read
// only after the run that pulled them has returned.
type pullStamps struct{ first, last time.Time }

func (p *pullStamps) pulled() {
	now := time.Now()
	if p.first.IsZero() {
		p.first = now
	}
	p.last = now
}

// sliceSource serves in-memory batches.
type sliceSource struct {
	pullStamps
	batches []*pg.Batch
	i       int
}

func (s *sliceSource) Next() *pg.Batch {
	if s.i == len(s.batches) {
		return nil
	}
	b := s.batches[s.i]
	s.i++
	s.pulled()
	return b
}

// wireSource decodes wire-encoded batches on every pull, with one reader
// whose intern table stays warm across the stream, as an ingest endpoint
// would.
type wireSource struct {
	pullStamps
	encoded [][]byte
	i       int
	br      bytes.Reader
	wr      *pg.WireReader
}

func (s *wireSource) Next() (*pg.Batch, error) {
	if s.i == len(s.encoded) {
		return nil, nil
	}
	s.br.Reset(s.encoded[s.i])
	if s.wr == nil {
		s.wr = pg.NewWireReader(&s.br)
	} else {
		s.wr.Reset(&s.br)
	}
	b, err := pg.ReadBatch(s.wr)
	if err != nil {
		return nil, fmt.Errorf("decode batch %d: %w", s.i, err)
	}
	s.i++
	s.pulled()
	return b, nil
}

// memCheckpointer keeps a copy of the latest checkpoint in memory, the
// cheapest durable-looking sink: every save is copied out, none is written.
type memCheckpointer struct{ state []byte }

func (m *memCheckpointer) Save(state []byte) error {
	m.state = append(m.state[:0], state...)
	return nil
}

// pass is one run of the program over the stream.
type pass struct {
	res   *core.Result
	json  []byte
	pulls pullStamps
	end   time.Time
}

// runPass runs the program once over a fresh source with cfg, from the
// first pull to the serialized JSON schema.
func (s *stream) runPass(cfg core.Config) (*pass, error) {
	p := &pass{}
	var err error
	switch {
	case s.encoded != nil || s.checkpoint:
		var src pg.ErrSource
		var stamps *pullStamps
		if s.encoded != nil {
			ws := &wireSource{encoded: s.encoded}
			src, stamps = ws, &ws.pullStamps
		} else {
			ss := &sliceSource{batches: s.batches}
			src, stamps = pg.AsErrSource(ss), &ss.pullStamps
		}
		var opts core.FTOptions
		if s.checkpoint {
			opts.Checkpoint = &memCheckpointer{}
		}
		p.res, err = core.DiscoverShardedFT(src, cfg, opts)
		p.pulls = *stamps
	default:
		src := &sliceSource{batches: s.batches}
		p.res = core.Discover(src, cfg)
		p.pulls = src.pullStamps
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := serialize.WriteJSON(&buf, p.res.Def); err != nil {
		return nil, err
	}
	p.end = time.Now()
	p.json = buf.Bytes()
	return p, nil
}

// check compares a pass's schema with the reference.
func (s *stream) check(out *outcome, what string, got []byte) {
	if !bytes.Equal(got, s.ref) {
		out.fail("%s: schema (%d bytes) differs from the reference (%d bytes)", what, len(got), len(s.ref))
	}
}

// discoveryJob is ldbc-clean (sharded=false) or noisy-sharded-ft
// (sharded=true).
type discoveryJob struct {
	sc      scale
	sharded bool
	s       *stream
}

func newDiscoveryJob(sharded bool, sc scale, seed int64) (*discoveryJob, error) {
	cfg := core.DefaultConfig()
	if !sharded {
		ds := datagen.Generate(datagen.ProfileByName("LDBC"), datagen.Options{Nodes: sc.LDBCNodes, Seed: seed})
		return &discoveryJob{sc: sc, s: newStream(ds.Graph.SplitRandom(sc.LDBCBatches, seed), cfg)}, nil
	}
	cfg.Shards = 2
	cfg.DriftPolicy = core.DriftEvolve
	cfg.MemBudgetBytes = 8 << 20
	scn := *datagen.ScenarioByName("noise-ramp")
	scn.BatchNodes = sc.NoisyBatchNodes
	st := scn.Stream(seed)
	var batches []*pg.Batch
	for b := st.Next(); b != nil; b = st.Next() {
		batches = append(batches, b)
	}
	s := newStream(batches, cfg)
	s.checkpoint = true
	if err := s.encode(); err != nil {
		return nil, err
	}
	return &discoveryJob{sc: sc, sharded: true, s: s}, nil
}

func (j *discoveryJob) warmUp() error {
	_, err := j.s.runPass(j.s.cfg)
	return err
}

// reference is a depth-1 serial Discover for ldbc-clean, and a
// checkpoint-free DiscoverSharded of the same configuration over the
// undecoded batches for noisy-sharded-ft.
func (j *discoveryJob) reference() error {
	var res *core.Result
	if j.sharded {
		res = core.DiscoverSharded(pg.NewSliceSource(j.s.batches...), j.s.cfg)
	} else {
		cfg := j.s.cfg
		cfg.PipelineDepth = 1
		res = core.Discover(pg.NewSliceSource(j.s.batches...), cfg)
	}
	var buf bytes.Buffer
	if err := serialize.WriteJSON(&buf, res.Def); err != nil {
		return err
	}
	j.s.ref = buf.Bytes()
	return nil
}

// measure times whole passes. Each pass starts after a forced GC, so every
// pass begins from the same heap; allocation counts are the pass's own.
func (j *discoveryJob) measure(deadline time.Time, out *outcome) error {
	var rates, allocs, allocBytes, retained, fresh, batchLat []float64
	for n := 0; n < j.sc.MinPasses || time.Now().Before(deadline); n++ {
		settleHeap()
		var before, after, held runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := j.s.runPass(j.s.cfg)
		out.attempted++
		if err != nil {
			out.fail("pass %d: %v", n, err)
			continue
		}
		runtime.ReadMemStats(&after)
		settleHeap()
		runtime.ReadMemStats(&held)
		runtime.KeepAlive(p.res)

		j.s.check(out, fmt.Sprintf("pass %d", n), p.json)
		el := float64(j.s.elements)
		rates = append(rates, el/p.end.Sub(p.pulls.first).Seconds())
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/el)
		allocBytes = append(allocBytes, float64(after.TotalAlloc-before.TotalAlloc)/el)
		retained = append(retained, float64(int64(held.HeapAlloc)-int64(before.HeapAlloc))/(1<<20))
		fresh = append(fresh, ms(p.end.Sub(p.pulls.last)))
		for _, r := range p.res.Reports {
			batchLat = append(batchLat, ms(r.Wall))
		}
	}
	out.metrics["elements_per_s"] = median(rates)
	out.metrics["allocs_per_element"] = median(allocs)
	out.metrics["alloc_bytes_per_element"] = median(allocBytes)
	out.metrics["retained_heap_mb"] = median(retained)
	out.metrics["latency_p50_ms"] = quantile(batchLat, 0.50)
	out.metrics["latency_p99_ms"] = quantile(batchLat, 0.99)
	out.metrics["freshness_ms"] = median(fresh)
	out.notes["passes"] = len(rates)
	out.notes["pass_elements_per_s"] = rates
	out.notes["pass_retained_heap_mb"] = retained
	out.notes["elements_per_pass"] = j.s.elements
	out.notes["batches_per_pass"] = len(j.s.batches)
	out.notes["latency_samples"] = len(batchLat)
	out.notes["failed_frac"] = float64(out.failed) / float64(out.attempted)
	return nil
}

func (j *discoveryJob) trace(deadline time.Time, tr *tracer, out *outcome) error {
	return traceStream(j.s, j.sc, j.s.runPass, deadline, tr, out)
}
