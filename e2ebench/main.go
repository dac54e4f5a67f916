// Command e2ebench is the end-to-end benchmark of opportune. It drives one
// workload through the program's public entry points for a fixed time,
// checks every answer against an independent computation, and prints its
// metrics as one JSON object on the last line of standard output.
//
//	go run . --workload evolve --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with no metrics
// registry attached. With --trace 1 it attaches one, records its own spans
// around every public call, and reports the per-layer metrics instead.
// See README.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"opportune/internal/workload"
)

// e2eUnits and layerUnits name every metric a run reports, with its unit.
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"secondary_p50_ms", "ms"},
	{"sim_s", "s"},
	{"view_mb", "MB"},
}

var layerUnits = []struct{ name, unit string }{
	{"hiveql.parse_ms", "ms"},
	{"optimizer.compile_ms", "ms"},
	{"optimizer.estimate_hit_ratio", "ratio"},
	{"rewrite.bfr_ms", "ms"},
	{"rewrite.dp_ms", "ms"},
	{"rewrite.candidates", "count/round"},
	{"rewrite.attempts", "count/round"},
	{"rewrite.useful_ratio", "ratio"},
	{"session.plan_ms", "ms/round"},
	{"session.execute_ms", "ms/round"},
	{"session.stats_ms", "ms/round"},
	{"session.stale_replans", "count/round"},
	{"session.views_maintained", "count/round"},
	{"session.views_invalidated", "count/round"},
	{"session.maintain_sim_s", "s/round"},
	{"session.batch_jobs_deduped", "count/round"},
	{"session.batch_scan_mb_saved", "MB/round"},
	{"session.batch_fanin", "count"},
	{"mr.jobs", "count/round"},
	{"mr.input_mb", "MB/round"},
	{"mr.shuffle_mb", "MB/round"},
	{"mr.output_mb", "MB/round"},
	{"mr.map_ms", "ms/round"},
	{"mr.shuffle_ms", "ms/round"},
	{"mr.reduce_ms", "ms/round"},
	{"mr.materialize_ms", "ms/round"},
	{"mr.fused_row_share", "ratio"},
	{"mr.partition_local_share", "ratio"},
	{"mr.task_retries", "count/round"},
	{"meta.stats_ms", "ms/round"},
	{"meta.stats_sim_s", "s/round"},
	{"storage.read_mb", "MB/round"},
	{"storage.write_mb", "MB/round"},
	{"service.admit_wait_ms", "ms"},
	{"service.exec_ms", "ms"},
	{"service.fallbacks", "count/round"},
	{"service.batches", "count/round"},
	{"service.batch_size_mean", "count"},
	{"service.size_cut_share", "ratio"},
	{"service.generator_late_ms", "ms"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_mb", "MB/round"},
	{"runtime.gc_cycles", "count/round"},
	{"trace.p50_ms", "ms"},
}

var workloads = map[string]func(options) (*result, error){
	"evolve":  runEvolve,
	"search":  runSearch,
	"ingest":  runIngest,
	"service": runService,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: evolve, search, ingest or service")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 15, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 attaches a metrics registry and reports per-layer metrics")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace bool) error {
	fn, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	sc := workload.DefaultScale()
	sc.Seed = seed
	o := options{workload: name, seed: seed, seconds: seconds, trace: trace, scale: sc, setups: 15}
	if trace {
		if err := os.MkdirAll(buildDir(), 0o755); err != nil {
			return err
		}
		o.traceOut = filepath.Join(buildDir(), fmt.Sprintf("spans-%s-%d.json", name, seed))
	}
	res, err := fn(o)
	if err != nil {
		return err
	}
	out := report(o, res)
	summarize(o, res, out)
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// buildDir is where the benchmark leaves its files: the build directory
// the caller names in CARGO_TARGET_DIR, else .bench_build.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// report turns a run's measurements into the result object.
func report(o options, res *result) output {
	attempted, failed := res.totals()
	out := output{
		Correct:   len(res.checkErr) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metric),
	}
	if o.trace {
		for _, m := range layerUnits {
			out.Metrics[m.name] = metric{res.layers[m.name], m.unit}
		}
		return out
	}
	rounds := float64(max(res.rounds, 1))
	tail := res.tail
	if tail == nil {
		tail = res.primary
	}
	vals := map[string]float64{
		"setup_s":          median(res.setupS),
		"heap_peak_mb":     float64(res.heapPeak) / 1e6,
		"ops_per_s":        res.opsDone / res.busyS,
		"p50_ms":           median(res.primary),
		"tail_ms":          quantile(tail, res.tailQ),
		"secondary_p50_ms": median(res.secondary),
		"sim_s":            res.simS / rounds,
		"view_mb":          mean(res.viewMB),
	}
	for _, m := range e2eUnits {
		out.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	return out
}

// summarize prints the human-readable account of a run to standard error:
// operations per type, sample counts, failed checks and, for a traced run,
// the per-layer table.
func summarize(o options, res *result, out output) {
	w := os.Stderr
	fmt.Fprintf(w, "workload %s seed %d: %d rounds, %d primary and %d secondary samples, %.2f s busy\n",
		o.workload, o.seed, res.rounds, len(res.primary), len(res.secondary), res.busyS)
	names := make([]string, 0, len(res.ops))
	for n := range res.ops {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  op %-12s attempted %6d failed %4d\n", n, res.ops[n].Attempted, res.ops[n].Failed)
	}
	reasons := make([]string, 0, len(res.failures))
	for f := range res.failures {
		reasons = append(reasons, f)
	}
	sort.Strings(reasons)
	for _, f := range reasons {
		fmt.Fprintf(w, "  FAILED %dx %s\n", res.failures[f], f)
	}
	for _, e := range res.checkErr {
		fmt.Fprintln(w, "  CHECK FAILED:", e)
	}
	keys := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := out.Metrics[k]
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", k, m.Value, m.Unit)
	}
	if o.traceOut != "" {
		fmt.Fprintln(w, "  spans written to", o.traceOut)
	}
}
