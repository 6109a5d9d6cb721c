// Command perfbench is the repository's end-to-end benchmark: one
// process that drives the wanperf layers through their public entry
// points on inputs generated from a seed, checks the outputs, and prints
// every metric by name and unit.
//
//	perfbench --workload pipeline|serve-batch|single-refresh --seed N --seconds S --trace 0|1
//	perfbench compare A.json B.json
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans around its own calls into each layer and reports the
// per-layer metrics instead. The last line of standard output is
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// and the line before it is the full record (fingerprint, phases,
// checks), which --out also writes to a file for compare. The exit code
// is 1 when any output check fails and 2 on a usage error. See README.md
// for what each workload and metric means.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"rows_per_s", "1/s"},
	{"mdape_xgb_pct", "%"},
	{"mdape_lr_pct", "%"},
	{"refresh_p50_s", "s"},
	{"ok_share", "ratio"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer the workload does not
// exercise reports 0. The open-loop latencies come first: they are what
// a caller sees, but on a shared two-core host their run-to-run spread
// tracks the hypervisor's steal time, so they are reported without a
// bound rather than gated.
var perLayer = []metricDef{
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"simulate.s", "s"},
	{"features.s", "s"},
	{"core.select_s", "s"},
	{"core.evaluate_s", "s"},
	{"pipeline.unattributed_s", "s"},
	{"serve.build_s", "s"},
	{"gbt.train_s", "s"},
	{"linreg.fit_s", "s"},
	{"gbt.kernel_ns_per_row", "ns"},
	{"gbt.float_kernel_ns_per_row", "ns"},
	{"dataset.quantize_ns_per_row", "ns"},
	{"serve.codec_ns_per_row", "ns"},
	{"serve.queue_ns_per_row", "ns"},
	{"serve.http_ns_per_row", "ns"},
	{"serve.codec_ns_per_req", "ns"},
	{"serve.queue_ns_per_req", "ns"},
	{"serve.http_ns_per_req", "ns"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.rows_per_batch", "rows"},
	{"serve.shed_queue_full", "count"},
	{"serve.shed_queue_wait", "count"},
	{"serve.shed_deadline", "count"},
	{"serve.global_share", "ratio"},
	{"stream.tail_s", "s"},
	{"stream.ingest_s", "s"},
	{"stream.refresh_s", "s"},
	{"serve.reload_s", "s"},
	{"stream.promotions", "count"},
	{"stream.rejections", "count"},
	{"stream.window_rows", "count"},
	{"gbt.trees", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.late_max_ms", "ms"},
	{"trace.overhead_s", "s"},
	{"run.unattributed_s", "s"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// record is everything one run measured.
type record struct {
	Fingerprint fingerprint        `json:"fingerprint"`
	Correct     bool               `json:"correct"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	Metrics     map[string]metric  `json:"metrics"`
	Phases      []phaseResult      `json:"phases,omitempty"`
	Checks      []check            `json:"checks"`
	Notes       map[string]float64 `json:"notes,omitempty"`
}

// summaryLine is the last line of standard output.
type summaryLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what a workload runs with.
type env struct {
	seed    int64
	seconds time.Duration
	tr      *tracer // nil unless --trace 1
	dir     string  // scratch directory for logs and registry files
	state   string  // directory that persists across runs in one checkout
	rec     *record
	vals    map[string]float64
}

func (e *env) set(name string, v float64) { e.vals[name] = v }

func (e *env) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
		fmt.Fprintf(os.Stderr, "perfbench: check %s failed: %s\n", name, c.Detail)
	}
	e.rec.Checks = append(e.rec.Checks, c)
}

func (e *env) note(name string, v float64) {
	if e.rec.Notes == nil {
		e.rec.Notes = map[string]float64{}
	}
	e.rec.Notes[name] = v
}

// phase records a load phase and folds its requests into the totals.
func (e *env) phase(p phaseResult) {
	e.rec.Phases = append(e.rec.Phases, p)
	e.rec.Attempted += int64(p.Sent)
	e.rec.Failed += int64(p.Failed)
	if p.Loop == "open" {
		e.check("phase "+p.Name+" generator on schedule", !p.GenBehind,
			"generator lateness p99 %.3f ms (limit %.3f ms), sent %d of %d scheduled",
			p.GenLateP99MS, p.GenLimitMS, p.Sent, p.Scheduled)
	}
}

var workloads = map[string]func(context.Context, *env) error{
	"pipeline":       runPipeline,
	"serve-batch":    runServeBatch,
	"single-refresh": runSingleRefresh,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "pipeline, serve-batch or single-refresh")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "how long the measured phases run, in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := fs.String("out", "", "also write the full record to this file")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	os.Exit(runMain(*workload, run, *seed, *seconds, *trace == 1, *out))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func runMain(name string, run func(context.Context, *env) error, seed int64, seconds int, trace bool, out string) int {
	state := filepath.Join(".bench_build", "perfbench-state")
	if err := os.MkdirAll(state, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "perfbench-run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{
		seed:    seed,
		seconds: time.Duration(seconds) * time.Second,
		dir:     dir,
		state:   state,
		rec:     &record{Fingerprint: takeFingerprint(name, seed, seconds, trace)},
		vals:    map[string]float64{},
	}
	if trace {
		e.tr = newTracer()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	if err := run(ctx, e); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	if trace {
		e.addLayerTimes()
	} else {
		e.set("rss_peak_mb", peakRSSMB())
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	e.rec.Metrics = map[string]metric{}
	for _, d := range defs {
		v, ok := e.vals[d.name]
		e.check("metric "+d.name+" reported", ok, "workload did not report it")
		e.rec.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	e.check("attempted at least one operation", e.rec.Attempted >= 1, "attempted %d", e.rec.Attempted)
	e.rec.Correct = true
	for _, c := range e.rec.Checks {
		e.rec.Correct = e.rec.Correct && c.OK
	}
	full, err := json.Marshal(e.rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding record:", err)
		return 1
	}
	if out != "" {
		if err := os.WriteFile(out, append(full, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	last, err := json.Marshal(summaryLine{e.rec.Correct, e.rec.Attempted, e.rec.Failed, e.rec.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		return 1
	}
	fmt.Printf("%s\n%s\n", full, last)
	if !e.rec.Correct {
		return 1
	}
	return 0
}

// rootSpans maps the spans that enclose a whole workload or pipeline to
// the metric their self time — the time no layer span covers — reports.
var rootSpans = map[string]string{
	"run":      "run.unattributed_s",
	"pipeline": "pipeline.unattributed_s",
}

// addLayerTimes turns the traced spans into per-layer metrics: the self
// time of every span the workload opened, under the span's name.
func (e *env) addLayerTimes() {
	for name, d := range e.tr.selfTimes() {
		e.note("span."+name, d.Seconds())
		if m, ok := rootSpans[name]; ok {
			name = m
		}
		if _, ok := e.vals[name]; !ok {
			e.vals[name] = d.Seconds()
		}
	}
	for _, d := range perLayer {
		if _, ok := e.vals[d.name]; !ok {
			e.vals[d.name] = 0
		}
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// compareMain prints the relative change of every metric between two
// records written with --out, refusing when their fingerprints differ.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.json NEW.json")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
	}
	if err := recs[0].Fingerprint.checkComparable(recs[1].Fingerprint); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: refusing to compare:", err)
		return 1
	}
	fmt.Fprintf(w, "base %s (dirty=%v)  new %s (dirty=%v)\n",
		recs[0].Fingerprint.Commit, recs[0].Fingerprint.Dirty, recs[1].Fingerprint.Commit, recs[1].Fingerprint.Dirty)
	var names []string
	for n := range recs[0].Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a, b := recs[0].Metrics[n], recs[1].Metrics[n]
		change := "n/a"
		if a.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", (b.Value-a.Value)/a.Value*100)
		}
		fmt.Fprintf(w, "%-30s %14.6g %14.6g %-6s %s\n", n, a.Value, b.Value, a.Unit, change)
	}
	return 0
}
