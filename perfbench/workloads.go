package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// scale sizes every workload. fullScale is what the benchmark runs; tests
// run the same code at a tiny scale.
type scale struct {
	// LDBCNodes and LDBCBatches size ldbc-clean.
	LDBCNodes, LDBCBatches int
	// NoisyBatchNodes sizes noisy-sharded-ft: the noise-ramp scenario at
	// that many nodes per batch, played once.
	NoisyBatchNodes int
	// ServeNodes and ServeBatches size serve-live's LDBC stream;
	// ServeInterval is the fixed release schedule of its batches.
	ServeNodes, ServeBatches int
	ServeInterval            time.Duration
	// ReadsPerSecond is the open-loop read rate; ReadLimit the latency
	// limit a read must meet to count as served in time.
	ReadsPerSecond int
	ReadLimit      time.Duration
	// MinPasses is the fewest timed passes (or sessions) a run makes, even
	// when the time budget runs out first.
	MinPasses int
}

var fullScale = scale{
	LDBCNodes: 40_000, LDBCBatches: 16,
	NoisyBatchNodes: 2_500,
	ServeNodes:      40_000, ServeBatches: 64, ServeInterval: 30 * time.Millisecond,
	ReadsPerSecond: 1_000, ReadLimit: 50 * time.Millisecond,
	MinPasses: 3,
}

// job is one workload's generated input plus everything it needs to run.
type job interface {
	// warmUp runs one untimed pass, so caches fill and lazy set-up finishes
	// before anything is timed.
	warmUp() error
	// reference computes the output every timed pass is checked against.
	reference() error
	// measure runs timed passes until the deadline (at least MinPasses) and
	// records the end-to-end metrics other than setup_s.
	measure(deadline time.Time, out *outcome) error
	// trace runs the traced serial replay and records the per-layer metrics.
	trace(deadline time.Time, tr *tracer, out *outcome) error
}

type workload struct {
	name, why string
	newJob    func(sc scale, seed int64) (job, error)
}

// workloads holds the benchmark's workloads; the why lines match
// BENCHMARK.json.
var workloads = map[string]workload{
	"ldbc-clean": {
		name: "ldbc-clean",
		why:  "few distinct records per batch, so vectorize and LSH adapt/sign/group dominate; no decode, checkpoint, validation or shard merge",
		newJob: func(sc scale, seed int64) (job, error) {
			return newDiscoveryJob(false, sc, seed)
		},
	},
	"noisy-sharded-ft": {
		name: "noisy-sharded-ft",
		why:  "many distinct records under ramping noise, so per-record memoisation is bypassed; runs wire decode, sketched evidence, drift checks, 2 shards and per-batch checkpoints",
		newJob: func(sc scale, seed int64) (job, error) {
			return newDiscoveryJob(true, sc, seed)
		},
	},
	"serve-live": {
		name: "serve-live",
		why:  "open-loop reads over HTTP while paced ingest publishes epochs: the only workload through serve's epochs, render cache and handler",
		newJob: func(sc scale, seed int64) (job, error) {
			return newServeJob(sc, seed)
		},
	},
}

func workloadNames() []string { return sortedKeys(workloads) }

// measureRun sets the workload up setupRepeats times (setup_s is the
// median), computes the reference, then measures.
func measureRun(w workload, sc scale, seed int64, budget time.Duration) (*outcome, error) {
	out := newOutcome()
	var j job
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		j = nil
		runtime.GC()
		start := time.Now()
		var err error
		if j, err = w.newJob(sc, seed); err != nil {
			return nil, err
		}
		if err := j.warmUp(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	out.metrics["setup_s"] = median(setups)
	if err := j.reference(); err != nil {
		return nil, err
	}
	return out, j.measure(time.Now().Add(budget), out)
}

// traceRun sets the workload up once and runs its traced replay.
func traceRun(w workload, sc scale, seed int64, budget time.Duration, tr *tracer) (*outcome, error) {
	out := newOutcome()
	j, err := w.newJob(sc, seed)
	if err != nil {
		return nil, err
	}
	if err := j.warmUp(); err != nil {
		return nil, err
	}
	if err := j.reference(); err != nil {
		return nil, err
	}
	return out, j.trace(time.Now().Add(budget), tr, out)
}

// median returns the median of xs, the mean of the middle two for an even
// count (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// settleHeap runs two GC cycles: the first moves sync.Pool contents to the
// victim cache, the second frees them, so the live heap read afterwards
// holds only what is still referenced.
func settleHeap() {
	runtime.GC()
	runtime.GC()
}
