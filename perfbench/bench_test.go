package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinyScale runs every workload in well under a second per pass.
var tinyScale = scale{
	LDBCNodes: 1_500, LDBCBatches: 3,
	NoisyBatchNodes: 120,
	ServeNodes:      1_500, ServeBatches: 6, ServeInterval: 5 * time.Millisecond,
	ReadsPerSecond: 400, ReadLimit: time.Second,
	MinPasses: 1,
}

// runTiny runs the command at tiny scale and returns its exit code, the
// decoded last line, the standard output and the ledger it wrote.
func runTiny(t *testing.T, workload, trace string) (int, resultLine, string, ledger) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	dir := t.TempDir()
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "0.001", "--trace", trace, "--out", dir}, tinyScale, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s trace %s: last line is not a result (exit %d): %v\nstdout:\n%s\nstderr:\n%s", workload, trace, code, err, stdout.String(), stderr.String())
	}
	var led ledger
	raw, err := os.ReadFile(filepath.Join(dir, workload+"-seed3-trace"+trace+".json"))
	if err == nil {
		err = json.Unmarshal(raw, &led)
	}
	if err != nil {
		t.Fatalf("%s trace %s: ledger: %v", workload, trace, err)
	}
	return code, line, stdout.String(), led
}

// ledger is the part of a run's ledger file the tests read.
type ledger struct {
	Env        map[string]any
	PathLayers map[string]metricValue `json:"path_layers"`
}

// layerWorkloads reads layers.json: the workloads whose path runs each
// per-layer metric's layer.
func layerWorkloads(t *testing.T) map[string][]string {
	t.Helper()
	raw, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Layers map[string]struct {
			Calls     string
			Workloads []string
		}
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	out := map[string][]string{}
	for name, l := range doc.Layers {
		if l.Calls == "" {
			t.Errorf("layers.json: %s names no calls", name)
		}
		out[name] = l.Workloads
	}
	return out
}

func TestEveryMetricEmittedWithUnit(t *testing.T) {
	runs := layerWorkloads(t)
	for _, name := range workloadNames() {
		for _, c := range []struct {
			trace string
			defs  []metricDef
		}{{"0", endToEnd}, {"1", perLayer}} {
			code, line, stdout, led := runTiny(t, name, c.trace)
			if code != 0 || !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Fatalf("%s trace %s: exit %d, correct %v, attempted %d, failed %d\n%s", name, c.trace, code, line.Correct, line.Attempted, line.Failed, stdout)
			}
			if len(line.Metrics) != len(c.defs) {
				t.Errorf("%s trace %s: %d metrics, want %d", name, c.trace, len(line.Metrics), len(c.defs))
			}
			for _, d := range c.defs {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", name, c.trace, d.Name, m, d.Unit)
				}
			}
			for _, k := range []string{"commit", "go_version", "nproc", "gomaxprocs", "seed"} {
				if _, ok := led.Env[k]; !ok {
					t.Errorf("%s trace %s: ledger env lacks %s", name, c.trace, k)
				}
			}
			if c.trace == "0" {
				for _, d := range endToEnd {
					if line.Metrics[d.Name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", name, d.Name)
					}
				}
				continue
			}
			if cov := line.Metrics["bench.span_coverage"].Value; cov < 0.5 || cov > 1 {
				t.Errorf("%s: span coverage %v", name, cov)
			}
			// A path layer is reported exactly on the workloads layers.json
			// says run it.
			for _, d := range pathLayers {
				m, got := led.PathLayers[d.Name]
				want := false
				for _, w := range runs[d.Name] {
					want = want || w == name
				}
				if got != want || (got && m.Unit != d.Unit) {
					t.Errorf("%s: path layer %s reported %v (%+v), want %v with unit %s", name, d.Name, got, m, want, d.Unit)
				}
			}
		}
	}
}

// corruptedJob wraps a real job and flips one byte of its reference.
type corruptedJob struct{ job }

func (c corruptedJob) reference() error {
	if err := c.job.reference(); err != nil {
		return err
	}
	var s *stream
	switch j := c.job.(type) {
	case *discoveryJob:
		s = j.s
	case *serveJob:
		s = j.s
	}
	s.ref[len(s.ref)/2] ^= 1
	return nil
}

func TestCorruptedReferenceFails(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		bad := w
		bad.name = "corrupt-" + name
		bad.newJob = func(sc scale, seed int64) (job, error) {
			j, err := w.newJob(sc, seed)
			return corruptedJob{j}, err
		}
		workloads[bad.name] = bad
		t.Cleanup(func() { delete(workloads, bad.name) })
		for _, trace := range []string{"0", "1"} {
			code, line, stdout, _ := runTiny(t, bad.name, trace)
			if code == 0 || line.Correct || line.Failed == 0 {
				t.Errorf("%s trace %s: exit %d, correct %v, failed %d; want a failed check\n%s", bad.name, trace, code, line.Correct, line.Failed, stdout)
			}
		}
	}
}

// TestMatchesBenchmarkJSON keeps the metric and workload tables in step with
// the repository's BENCHMARK.json.
func TestMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name].why != w.Why {
			t.Errorf("workload %s: why %q, want %q", w.Name, workloads[w.Name].why, w.Why)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %+v, command %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestLayersJSONCoversPerLayer(t *testing.T) {
	runs := layerWorkloads(t)
	if len(runs) != len(perLayer)+len(pathLayers) {
		t.Errorf("layers.json has %d layers, the command %d", len(runs), len(perLayer)+len(pathLayers))
	}
	check := func(defs []metricDef, everywhere bool) {
		for _, d := range defs {
			ws, ok := runs[d.Name]
			if !ok {
				t.Errorf("layers.json: %s missing", d.Name)
				continue
			}
			if (len(ws) == len(workloads)) != everywhere || len(ws) == 0 {
				t.Errorf("layers.json: %s runs on %v; in the result line: %v", d.Name, ws, everywhere)
			}
			for _, w := range ws {
				if _, ok := workloads[w]; !ok {
					t.Errorf("layers.json: %s names unknown workload %s", d.Name, w)
				}
			}
		}
	}
	check(perLayer, true)
	check(pathLayers, false)
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := quantile(xs, 0.99); got != 5 {
		t.Errorf("p99 = %v", got)
	}
	if got := quantile(xs, 0.2); got != 1 {
		t.Errorf("p20 = %v", got)
	}
}

// TestShiftedReplayFails moves the replay's LSH seeds off core's, so its
// parameters and cluster counts stop matching the BatchReports: the traced
// run must fail on that comparison, not only on the schema check.
func TestShiftedReplayFails(t *testing.T) {
	na, nf, ea, ef := nodeAdaptSeed, nodeFamSeed, edgeAdaptSeed, edgeFamSeed
	nodeAdaptSeed, nodeFamSeed, edgeAdaptSeed, edgeFamSeed = na+1, nf+1, ea+1, ef+1
	t.Cleanup(func() { nodeAdaptSeed, nodeFamSeed, edgeAdaptSeed, edgeFamSeed = na, nf, ea, ef })
	for _, name := range workloadNames() {
		code, line, stdout, _ := runTiny(t, name, "1")
		if code == 0 || line.Correct || !strings.Contains(stdout, "FAILED replay of batch") {
			t.Errorf("%s: exit %d, correct %v; want a failed replay comparison\n%s", name, code, line.Correct, stdout)
		}
	}
}
