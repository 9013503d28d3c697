package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pghive/internal/core"
	"pghive/internal/datagen"
	"pghive/internal/pg"
	"pghive/internal/serialize"
	"pghive/internal/serve"
)

// readers is the number of reader connections; with the ingest engine they
// keep the load within two cores.
const readers = 2

// handlerReads is how many in-process reads of the read mix the traced run
// times against the final epoch.
const handlerReads = 256

// epochInterval is the number of batches per published epoch.
const epochInterval = 2

// serveJob is serve-live: a serve.Server ingests an LDBC stream while an
// open-loop reader sends a fixed mix of reads. Live sessions release the
// batches on a fixed schedule; unpaced sessions release them all at once,
// so the engine's own ingest rate under the same read load shows.
type serveJob struct {
	sc scale
	s  *stream
}

func newServeJob(sc scale, seed int64) (*serveJob, error) {
	ds := datagen.Generate(datagen.ProfileByName("LDBC"), datagen.Options{Nodes: sc.ServeNodes, Seed: seed})
	cfg := core.DefaultConfig()
	cfg.EpochInterval = epochInterval
	return &serveJob{sc: sc, s: newStream(ds.Graph.SplitRandom(sc.ServeBatches, seed), cfg)}, nil
}

// warmUp ingests the stream unpaced into a throwaway server and renders its
// final full schema.
func (j *serveJob) warmUp() error {
	_, err := j.ingestPass(j.s.cfg)
	return err
}

// ingestPass ingests the stream unpaced with cfg into a fresh server through
// serve.Server.Ingest, from the first pull to the rendered detail=full body.
func (j *serveJob) ingestPass(cfg core.Config) (*pass, error) {
	srv := serve.NewServer(nil)
	src := &sliceSource{batches: j.s.batches}
	res, err := srv.Ingest(pg.AsErrSource(src), serve.IngestOptions{Config: cfg})
	if err != nil {
		return nil, err
	}
	full, _ := srv.Current().Rendered(serve.TierFull)
	return &pass{res: res, json: full.Body, pulls: src.pullStamps, end: time.Now()}, nil
}

// reference is batch Discover over the same batches.
func (j *serveJob) reference() error {
	var buf bytes.Buffer
	if err := serialize.WriteJSON(&buf, core.Discover(pg.NewSliceSource(j.s.batches...), j.s.cfg).Def); err != nil {
		return err
	}
	j.s.ref = buf.Bytes()
	return nil
}

// front is the HTTP listener the readers connect to. It outlives sessions
// (so reader connections stay open across them) and forwards every request
// to the current session's server.
type front struct {
	hs   *http.Server
	base string
	done chan struct{}
	cur  atomic.Pointer[http.Handler]
}

func startFront() (*front, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &front{base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	f.hs = &http.Server{Handler: f, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(f.done)
		_ = f.hs.Serve(ln) // returns http.ErrServerClosed after shutdown
	}()
	return f, nil
}

func (f *front) ServeHTTP(w http.ResponseWriter, r *http.Request) { (*f.cur.Load()).ServeHTTP(w, r) }

func (f *front) serve(srv *serve.Server) {
	h := srv.Handler()
	f.cur.Store(&h)
}

// close shuts the listener down and waits for its goroutine.
func (f *front) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := f.hs.Shutdown(ctx)
	<-f.done
	return err
}

func newReaderClients() []*http.Client {
	cs := make([]*http.Client, readers)
	for i := range cs {
		cs[i] = &http.Client{
			Timeout:   2 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		}
	}
	return cs
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// readPath picks the k-th read of the fixed mix: the four detail tiers in
// turn, each read every other time with a ?type= filter on a type name the
// current epoch holds. The even weights are an arbitrary choice: no
// measured read mix exists to follow.
func readPath(k int, e *serve.Epoch) string {
	tiers := [...]string{"summary", "types", "patterns", "full"}
	p := "/schema?detail=" + tiers[k%len(tiers)]
	round := k / len(tiers)
	if round%2 == 0 {
		return p
	}
	var names []string
	for i := range e.Def.Nodes {
		names = append(names, e.Def.Nodes[i].Name)
	}
	for i := range e.Def.Edges {
		names = append(names, e.Def.Edges[i].Name)
	}
	if len(names) == 0 {
		return p
	}
	return p + "&type=" + url.QueryEscape(names[(round/2)%len(names)])
}

// sleepUntil sleeps until t (returns at once when t has passed).
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// release is one ingest batch, stamped at the generator with its due time.
type release struct {
	b   *pg.Batch
	due time.Time
}

// releasedSource is the engine's end of the ingest generator: it hands over
// batches the generator has released, and records when the engine first
// pulled and how long each released batch waited for its pull.
type releasedSource struct {
	ch      <-chan release
	first   time.Time
	backlog time.Duration
}

func (s *releasedSource) Next() (*pg.Batch, error) {
	r, ok := <-s.ch
	if !ok {
		return nil, nil
	}
	now := time.Now()
	if s.first.IsZero() {
		s.first = now
	}
	if w := now.Sub(r.due); w > s.backlog {
		s.backlog = w
	}
	return r.b, nil
}

// read is one scheduled request, stamped with its due time.
type read struct {
	due  time.Time
	path string
}

// readResult is one worker's share of a session's reads.
type readResult struct {
	lat                []time.Duration
	failed, late, hits int
	errs               []string
}

// session is what one serve-live session measured.
type session struct {
	wall          time.Duration // first scheduled release to Ingest's return
	ingest        time.Duration // first pull to Ingest's return
	allocs, bytes uint64
	retained      int64
	lat           []time.Duration
	lags          []time.Duration // epoch publication lag behind its closing batch's release
	genLag        []time.Duration // read generator lateness
	ingestGenLag  time.Duration   // worst ingest generator lateness
	backlog       time.Duration
	reads, hits   int
	failed, late  int
	dropped       int
}

// runSession runs one serve session: fresh server, ingest released on the
// fixed schedule (paced) or all at once (unpaced), open-loop reads until
// ingest returns, then the final detail=full body is checked against the
// reference.
func (j *serveJob) runSession(fr *front, clients []*http.Client, paced bool, out *outcome) (*session, error) {
	srv := serve.NewServer(nil)
	fr.serve(srv)
	ss := &session{}

	settleHeap()
	var before, after, held runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now().Add(5 * time.Millisecond)
	var interval time.Duration
	if paced {
		interval = j.sc.ServeInterval
	}

	// Ingest generator: releases batch i at t0 + i·interval whatever the
	// engine is doing. The channel holds every batch, so a release never
	// waits for the engine.
	rel := make(chan release, len(j.s.batches))
	var ingestGen sync.WaitGroup
	ingestGen.Add(1)
	go func() {
		defer ingestGen.Done()
		defer close(rel)
		for i, b := range j.s.batches {
			due := t0.Add(time.Duration(i) * interval)
			sleepUntil(due)
			if l := time.Since(due); l > ss.ingestGenLag {
				ss.ingestGenLag = l
			}
			rel <- release{b: b, due: due}
		}
	}()

	// Read generator: schedules read k at t0 + k/rate until ingest returns.
	// The channel holds twice the reads the nominal session length needs;
	// should the workers fall that far behind, a read is dropped (and
	// counted failed) rather than delaying the schedule.
	period := time.Second / time.Duration(j.sc.ReadsPerSecond)
	nominal := time.Duration(len(j.s.batches)) * j.sc.ServeInterval
	reqs := make(chan read, 2*int(nominal/period)+64)
	stop := make(chan struct{})
	var readGen sync.WaitGroup
	readGen.Add(1)
	go func() {
		defer readGen.Done()
		defer close(reqs)
		for k := 0; ; k++ {
			due := t0.Add(time.Duration(k) * period)
			sleepUntil(due)
			select {
			case <-stop:
				return
			default:
			}
			ss.genLag = append(ss.genLag, time.Since(due))
			select {
			case reqs <- read{due: due, path: readPath(k, srv.Current())}:
			default:
				ss.dropped++
			}
		}
	}()
	results := make([]readResult, len(clients))
	var workers sync.WaitGroup
	for w := range clients {
		workers.Add(1)
		go func(c *http.Client, res *readResult) {
			defer workers.Done()
			for r := range reqs {
				_, hit, err := get(c, fr.base+r.path)
				lat := time.Since(r.due)
				switch {
				case err != nil:
					res.failed++
					if len(res.errs) < 5 {
						res.errs = append(res.errs, fmt.Sprintf("%s: %v", r.path, err))
					}
				case lat > j.sc.ReadLimit:
					res.late++
				}
				if hit {
					res.hits++
				}
				res.lat = append(res.lat, lat)
			}
		}(clients[w], &results[w])
	}

	src := &releasedSource{ch: rel}
	cfg := j.s.cfg
	_, ingestErr := srv.Ingest(src, serve.IngestOptions{Config: cfg})
	end := time.Now()
	ss.wall = end.Sub(t0)
	ss.ingest = end.Sub(src.first)
	close(stop)
	readGen.Wait()
	workers.Wait()
	ingestGen.Wait()
	runtime.ReadMemStats(&after)
	settleHeap()
	runtime.ReadMemStats(&held)
	ss.allocs = after.Mallocs - before.Mallocs
	ss.bytes = after.TotalAlloc - before.TotalAlloc
	ss.retained = int64(held.HeapAlloc) - int64(before.HeapAlloc)
	ss.backlog = src.backlog

	for i := range results {
		r := &results[i]
		ss.lat = append(ss.lat, r.lat...)
		ss.reads += len(r.lat)
		ss.hits += r.hits
		ss.failed += r.failed
		ss.late += r.late
		if r.failed > 0 {
			out.failN(r.failed, "%d reads failed, first: %v", r.failed, r.errs)
		}
	}
	if ss.dropped > 0 {
		out.failN(ss.dropped, "%d reads dropped: readers fell %d reads behind", ss.dropped, cap(reqs))
	}
	out.attempted += ss.reads + ss.dropped
	if paced {
		for _, e := range srv.Epochs() {
			ss.lags = append(ss.lags, e.Published.Sub(t0.Add(time.Duration(e.Seq)*interval)))
		}
	}
	if ingestErr != nil {
		return ss, ingestErr
	}

	// The final served full schema must be the batch pipeline's bytes.
	body, _, err := get(clients[0], fr.base+"/schema?detail=full")
	if err != nil {
		return ss, fmt.Errorf("final detail=full read: %w", err)
	}
	j.s.check(out, "served detail=full", body)
	return ss, nil
}

// get sends one read and returns the body of a 200 response holding a JSON
// object, and whether the schema cache served it.
func get(c *http.Client, u string) (body []byte, hit bool, err error) {
	resp, err := c.Get(u)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if body, err = io.ReadAll(resp.Body); err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("status %d", resp.StatusCode)
	}
	if len(body) == 0 || body[0] != '{' {
		return nil, false, errors.New("body is not a JSON object")
	}
	return body, resp.Header.Get("X-PGHive-Cache") == "hit", nil
}

// sessions runs rounds of sessions until the deadline (at least min): a
// paced session in every round, followed by an unpaced one when unpaced is
// set.
func (j *serveJob) sessions(deadline time.Time, min int, unpaced bool, out *outcome) (paced, fast []*session, err error) {
	fr, err := startFront()
	if err != nil {
		return nil, nil, err
	}
	clients := newReaderClients()
	defer func() {
		closeClients(clients)
		_ = fr.close()
	}()
	for n := 0; n < min || time.Now().Before(deadline); n++ {
		for _, p := range []bool{true, false} {
			if !p && !unpaced {
				continue
			}
			out.attempted++
			ss, err := j.runSession(fr, clients, p, out)
			if err != nil {
				out.fail("session %d (paced %v): %v", n, p, err)
				continue
			}
			if p {
				paced = append(paced, ss)
			} else {
				fast = append(fast, ss)
			}
		}
	}
	return paced, fast, nil
}

func (j *serveJob) measure(deadline time.Time, out *outcome) error {
	all, fast, err := j.sessions(deadline, j.sc.MinPasses, true, out)
	if err != nil {
		return err
	}
	el := float64(j.s.elements)
	var rates, offered, allocs, allocBytes, retained, p50, p99, lags, backlog, genLag, ingestGenLag []float64
	var scheduled, missed int
	for _, ss := range fast {
		rates = append(rates, el/ss.ingest.Seconds())
	}
	for _, ss := range all {
		offered = append(offered, el/ss.wall.Seconds())
		allocs = append(allocs, float64(ss.allocs)/el)
		allocBytes = append(allocBytes, float64(ss.bytes)/el)
		retained = append(retained, float64(ss.retained)/(1<<20))
		lat := make([]float64, len(ss.lat))
		for i, d := range ss.lat {
			lat[i] = ms(d)
		}
		p50 = append(p50, quantile(lat, 0.50))
		p99 = append(p99, quantile(lat, 0.99))
		for _, d := range ss.lags {
			lags = append(lags, ms(d))
		}
		for _, d := range ss.genLag {
			genLag = append(genLag, ms(d))
		}
		backlog = append(backlog, ms(ss.backlog))
		ingestGenLag = append(ingestGenLag, ms(ss.ingestGenLag))
		scheduled += ss.reads + ss.dropped
		missed += ss.late + ss.failed + ss.dropped
	}
	out.metrics["elements_per_s"] = median(rates)
	out.metrics["allocs_per_element"] = median(allocs)
	out.metrics["alloc_bytes_per_element"] = median(allocBytes)
	out.metrics["retained_heap_mb"] = median(retained)
	// Read latency percentiles are per session (some 1,900 reads, so p99
	// has about 19 beyond it), and the run reports their median: one session
	// hit by a long host stall does not move the figure.
	out.metrics["latency_p50_ms"] = median(p50)
	out.metrics["latency_p99_ms"] = median(p99)
	out.metrics["freshness_ms"] = median(lags)
	out.notes["sessions"] = len(all)
	out.notes["unpaced_sessions"] = len(fast)
	// A live session ingests at the schedule's rate unless the engine falls
	// behind it; elements_per_s is the unpaced sessions' rate.
	out.notes["paced_elements_per_s"] = median(offered)
	out.notes["reads_scheduled"] = scheduled
	out.notes["read_miss_frac"] = ratio(float64(missed), float64(scheduled))
	out.notes["read_limit_ms"] = ms(j.sc.ReadLimit)
	out.notes["read_generator_lag_p99_ms"] = quantile(genLag, 0.99)
	out.notes["ingest_generator_lag_max_ms"] = median(ingestGenLag)
	out.notes["ingest_backlog_ms"] = median(backlog)
	out.notes["epoch_lag_samples"] = len(lags)
	out.notes["failed_frac"] = ratio(float64(out.failed), float64(out.attempted))
	return nil
}

// trace runs the traced serial replay of the ingest stream (with serve's
// epoch clock), then measures the serve layer: epoch publication and
// first renders on an unpaced ingest at GOMAXPROCS 1, the in-process
// handler, and the cache hit ratio and generator lateness of one live
// session.
func (j *serveJob) trace(deadline time.Time, tr *tracer, out *outcome) error {
	s := *j.s
	s.cfg.OnEpoch = func(core.EpochSnapshot) {}
	if err := traceStream(&s, j.sc, j.ingestPass, time.Now().Add(time.Until(deadline)/2), tr, out); err != nil {
		return err
	}
	if err := j.traceServeLayer(tr, out); err != nil {
		return err
	}
	all, _, err := j.sessions(time.Time{}, 1, false, out)
	if err != nil {
		return err
	}
	var hits, reads int
	var genLag []float64
	for _, ss := range all {
		hits += ss.hits
		reads += ss.reads
		for _, d := range ss.genLag {
			genLag = append(genLag, float64(d)/float64(time.Microsecond))
		}
	}
	out.metrics["serve.hit_ratio"] = ratio(float64(hits), float64(reads))
	out.metrics["bench.read_generator_lag_p99_us"] = quantile(genLag, 0.99)
	return nil
}

// traceServeLayer ingests unpaced at GOMAXPROCS 1 and depth 1 with a
// chained epoch hook, then renders every published epoch's tiers once and
// drives the in-process handler.
func (j *serveJob) traceServeLayer(tr *tracer, out *outcome) error {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	pt := newPassTrace(tr, "serve")
	defer pt.finish()

	cfg := j.s.cfg
	cfg.PipelineDepth = 1
	hooked := map[int]time.Time{}
	cfg.OnEpoch = func(snap core.EpochSnapshot) { hooked[snap.Batches] = time.Now() }
	srv := serve.NewServer(nil)
	var err error
	out.attempted++
	if pt.do("serve.ingest", kindOwn, func() {
		_, err = srv.Ingest(pg.AsErrSource(pg.NewSliceSource(j.s.batches...)), serve.IngestOptions{Config: cfg})
	}); err != nil {
		return fmt.Errorf("traced ingest: %w", err)
	}
	var publish []float64
	render := make([][]float64, serve.NumTiers)
	for _, e := range srv.Epochs() {
		if at, ok := hooked[e.Batches]; ok && !e.Final {
			publish = append(publish, ms(e.Published.Sub(at)))
		}
		for t := 0; t < serve.NumTiers; t++ {
			d := pt.do("serve.render."+serve.Tier(t).String(), kindOwn, func() { e.Rendered(serve.Tier(t)) })
			render[t] = append(render[t], ms(d))
		}
	}
	out.metrics["serve.publish_ms"] = median(publish)
	for t := 0; t < serve.NumTiers; t++ {
		out.metrics["serve.render_ms."+serve.Tier(t).String()] = median(render[t])
	}

	h := srv.Handler()
	final := srv.Current()
	var handler []float64
	for k := 0; k < handlerReads; k++ {
		req := httptest.NewRequest(http.MethodGet, readPath(k, final), nil)
		rec := httptest.NewRecorder()
		d := pt.do("serve.handler", kindOwn, func() { h.ServeHTTP(rec, req) })
		out.attempted++
		if rec.Code != http.StatusOK {
			out.fail("in-process read %s: status %d", req.URL, rec.Code)
		}
		handler = append(handler, float64(d)/float64(time.Microsecond))
	}
	out.metrics["serve.handler_us"] = median(handler)
	return nil
}
