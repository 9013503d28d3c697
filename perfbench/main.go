// Command perfbench is the repository benchmark: one command that generates
// a workload's input from a seed, drives the discovery engine or the
// resident schema service with it for a fixed time, checks every output
// against a reference computed in set-up, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics of a traced serial run).
//
//	perfbench --workload ldbc-clean --seed 1 --seconds 10 --trace 0
//
// Human-readable report lines go to standard output first; the last line is
// one JSON object {"correct", "attempted", "failed", "metrics"}. A ledger
// with the environment stamp and the trace spans is written under --out.
// The exit code is 0 only when every operation succeeded and every output
// matched its reference.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics of an untraced run, emitted by every workload
// (README.md gives each one's definition per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"elements_per_s", "elem/s"},
	{"allocs_per_element", "count"},
	{"alloc_bytes_per_element", "B"},
	{"retained_heap_mb", "MB"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"freshness_ms", "ms"},
}

// perLayer lists the metrics of a traced run of the layers every workload
// runs; they form the result line. layers.json maps each metric to the
// workloads and end-to-end metrics it should move.
var perLayer = []metricDef{
	{"vectorize.vectorize_ms", "ms"},
	{"vectorize.encode_ms", "ms"},
	{"vectorize.distinct_record_share", "ratio"},
	{"embed.retrains", "count"},
	{"lsh.adapt_ms", "ms"},
	{"lsh.adapt_sample_elements", "count"},
	{"lsh.sign_ms", "ms"},
	{"lsh.prefix_reuse_ratio", "ratio"},
	{"lsh.group_ms", "ms"},
	{"lsh.clusters", "count"},
	{"core.process_batch_ms", "ms"},
	{"core.extract_ms", "ms"},
	{"core.finalize_ms", "ms"},
	{"schema.evidence_bytes", "B"},
	{"serialize.json_ms", "ms"},
	{"serialize.json_bytes", "B"},
	{"bench.span_coverage", "ratio"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.elements_per_s_1cpu", "elem/s"},
}

// pathLayers lists the traced metrics of layers only some workloads run. A
// traced run reports them, as report lines and in its ledger, exactly when
// its workload's path runs the layer: where a layer does not run there is no
// time to report.
var pathLayers = []metricDef{
	{"pg.decode_ms", "ms"},
	{"pg.decode_allocs_per_element", "count"},
	{"core.checkpoint_ms", "ms"},
	{"core.checkpoint_bytes", "B"},
	{"schema.merge_ms", "ms"},
	{"validate.check_ms", "ms"},
	{"validate.violations", "count"},
	{"serve.publish_ms", "ms"},
	{"serve.render_ms.summary", "ms"},
	{"serve.render_ms.types", "ms"},
	{"serve.render_ms.patterns", "ms"},
	{"serve.render_ms.full", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.handler_us", "us"},
	{"bench.read_generator_lag_p99_us", "us"},
}

// setupRepeats is how many times a run sets up before measuring; setup_s is
// the median, so one slow set-up does not move it.
const setupRepeats = 3

// outcome is what one run measured: operation counts, metric values by
// name, and extra report-only values (counts behind the metrics, health
// figures that may legitimately be zero).
type outcome struct {
	attempted, failed int
	mismatches        []string
	metrics           map[string]float64
	notes             map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, notes: map[string]any{}}
}

// fail records a failed operation with its reason.
func (o *outcome) fail(format string, args ...any) { o.failN(1, format, args...) }

// failN records n failed operations with one reason.
func (o *outcome) failN(n int, format string, args ...any) {
	o.failed += n
	if len(o.mismatches) < 20 {
		o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the final JSON line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], fullScale, os.Stdout, os.Stderr)) }

func run(args []string, sc scale, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's input is generated from")
	seconds := fs.Float64("seconds", 10, "measurement time per run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	outDir := fs.String("out", ".bench_out", "directory for the ledger and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --trace 0|1 and --seconds > 0\n", strings.Join(workloadNames(), ", "))
		return 2
	}

	env := envStamp(*seed)
	fmt.Fprintf(stdout, "perfbench: workload %s (%s)\n", w.name, w.why)
	fmt.Fprintf(stdout, "perfbench: env %s\n", mustJSON(env))

	budget := time.Duration(*seconds * float64(time.Second))
	var out *outcome
	var tr *tracer
	var err error
	if *trace == 1 {
		tr = newTracer()
		out, err = traceRun(w, sc, *seed, budget, tr)
	} else {
		out, err = measureRun(w, sc, *seed, budget)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}

	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	line := resultLine{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured\n", w.name, d.Name)
			return 1
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "perfbench: %-34s %16.6g %s\n", d.Name, v, d.Unit)
	}
	path := map[string]metricValue{}
	for _, d := range pathLayers {
		if v, ok := out.metrics[d.Name]; ok {
			path[d.Name] = metricValue{Value: v, Unit: d.Unit}
			fmt.Fprintf(stdout, "perfbench: %-34s %16.6g %s (path layer)\n", d.Name, v, d.Unit)
		}
	}
	if n := len(line.Metrics) + len(path); n != len(out.metrics) {
		fmt.Fprintf(stderr, "perfbench: %s: %d metrics measured, %d known\n", w.name, len(out.metrics), n)
		return 1
	}
	for _, k := range sortedKeys(out.notes) {
		fmt.Fprintf(stdout, "perfbench: note %s = %v\n", k, out.notes[k])
	}
	for _, m := range out.mismatches {
		fmt.Fprintf(stdout, "perfbench: FAILED %s\n", m)
	}
	if err := writeLedger(*outDir, w.name, *seed, *trace, env, line, path, out.notes, tr); err != nil {
		fmt.Fprintf(stderr, "perfbench: ledger: %v\n", err)
	}
	fmt.Fprintln(stdout, mustJSON(line))
	if !line.Correct {
		return 1
	}
	return 0
}

// envStamp records where a run was measured.
func envStamp(seed int64) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"commit":     commit,
		"go_version": runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"seed":       seed,
	}
}

// writeLedger writes the run's environment stamp, result, path-layer
// metrics and notes, plus the trace spans of a traced run, to
// <dir>/<workload>-seed<n>-trace<t>.json.
func writeLedger(dir, workload string, seed int64, trace int, env map[string]any, line resultLine, path map[string]metricValue, notes map[string]any, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := map[string]any{"env": env, "workload": workload, "result": line, "path_layers": path, "notes": notes}
	if tr != nil {
		doc["spans"] = tr.spans
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	file := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, trace))
	return os.WriteFile(file, b, 0o644)
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and structs of numbers and strings are marshalled
	}
	return string(b)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
