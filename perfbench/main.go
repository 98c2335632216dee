// Command perfbench is the repository benchmark. It drives three
// workloads against the program as users run it — the gapschedd
// daemon over loopback and the gapsched.Solver facade in process —
// checks every answer against reference costs, and prints the
// end-to-end metrics. With -trace 1 it instead times the calls into
// each layer's public functions on the same inputs and prints the
// per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash perfbench/run.sh --workload serve-bursty --seed 1 --seconds 25 --trace 0
//	perfbench -compare old.json new.json
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// metricDef names one metric of the final JSON line.
type metricDef struct{ name, unit string }

// e2eMetrics are printed by every workload with -trace 0; layerMetrics
// by every workload with -trace 1. BENCHMARK.json lists the same names,
// and the final JSON line carries exactly these.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_ops_s", "ops/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// reportMetrics are end-to-end metrics printed (with unit and sample
// count) and saved, but left out of BENCHMARK.json: error_rate is 0 on
// a correct program and max_rate_rps exists only on serve-bursty; the
// tail is printed for every workload but is too noisy to gate on.
var reportMetrics = []metricDef{
	{"latency_tail_ms", "ms"},
	{"error_rate", "ratio"},
	{"max_rate_rps", "req/s"},
}

var layerMetrics = []metricDef{
	{"sched.decode_us", "us"},
	{"sched.encode_us", "us"},
	{"sched.response_bytes", "bytes"},
	{"service.serve_http_us", "us"},
	{"service.queue_wait_us", "us"},
	{"service.batch_size_mean", "req/dispatch"},
	{"service.net_residual_us", "us"},
	{"gapsched.alloc_bytes_per_op", "bytes"},
	{"gapsched.dp_fragments", "count"},
	{"gapsched.poly_fragments", "count"},
	{"gapsched.heur_fragments", "count"},
	{"prep.us", "us"},
	{"prep.fragments_per_op", "count"},
	{"fragcache.hit_ratio", "ratio"},
	{"fragcache.lookup_us", "us"},
	{"fragcache.evictions", "count"},
	{"feas.check_ms", "ms"},
	{"heur.incumbent_ms", "ms"},
	{"core.solve_ms", "ms"},
	{"core.expand_ms", "ms"},
	{"core.expanded_states", "count"},
	{"core.pruned_states", "count"},
	{"core.prune_ratio", "ratio"},
	{"assemble.us", "us"},
	{"incr.delta_us", "us"},
	{"incr.resolve_us", "us"},
	{"incr.reuse_ratio", "ratio"},
	{"obs.observe_ns", "ns"},
	{"obs.scrape_ms", "ms"},
	{"obs.metrics_bytes", "bytes"},
	{"harness.trace_overhead_pct", "%"},
	{"harness.residual_pct", "%"},
}

// workloads maps each workload name to its end-to-end and traced runs.
var workloads = map[string]struct {
	run   func(*env) (*report, error)
	trace func(*env) (*report, error)
}{
	"serve-bursty":  {runServeBursty, traceServeBursty},
	"solve-dense":   {runSolveDense, traceSolveDense},
	"session-churn": {runSessionChurn, traceSessionChurn},
}

// env is what one benchmark invocation runs with.
type env struct {
	workload string
	seed     int64
	seconds  float64
	short    bool   // shrink inputs and phases (self-tests)
	root     string // repository root; all outputs go under root/.bench_build
	daemon   string // gapschedd binary
	nproc    int    // client connections/callers used by the workloads
}

// outDir returns root/.bench_build/<sub>, creating it.
func (e *env) outDir(sub string) (string, error) {
	d := filepath.Join(e.root, ".bench_build", sub)
	return d, os.MkdirAll(d, 0o755)
}

// report accumulates one run's metrics and human-readable lines.
type report struct {
	metrics   map[string]float64
	notes     map[string]string
	extra     []string // report-only lines
	attempted int
	failed    int
	correct   bool
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, notes: map[string]string{}, correct: true}
}

// set records a metric with an optional note (sample count, percentile).
func (r *report) set(name string, v float64, note string) {
	r.metrics[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

// line adds a report-only line.
func (r *report) line(format string, args ...any) {
	r.extra = append(r.extra, fmt.Sprintf(format, args...))
}

// errorRate records failed over attempted ops.
func (r *report) errorRate(extra string) {
	r.set("error_rate", float64(r.failed)/float64(max(r.attempted, 1)),
		strings.TrimSpace(fmt.Sprintf("failed=%d attempted=%d %s", r.failed, r.attempted, extra)))
}

// fail records a failed answer check; the run is then not correct.
func (r *report) fail(format string, args ...any) {
	if r.correct {
		r.line("FIRST FAILURE: "+format, args...)
	}
	r.correct = false
}

// hostRecord identifies the machine and the code a result was measured on.
type hostRecord struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source"`
}

func (h hostRecord) machine() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s", h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion)
}

func readHost(root string) hostRecord {
	h := hostRecord{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: gitCommit(root), Source: sourceDigest(root)}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// gitCommit reads HEAD from root/.git without running git; checkouts
// without .git report "none" (the source digest still identifies the code).
func gitCommit(root string) string {
	b, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	head := strings.TrimSpace(string(b))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(l, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go file and go.mod of the program outside
// the benchmark's own directory, so two results can show they measured
// the same code even where no commit is known.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fingerprint hashes generated inputs (plain values, no pointers);
// equal seeds give equal prints.
func fingerprint(v any) string {
	s := sha256.Sum256([]byte(fmt.Sprintf("%v", v)))
	return hex.EncodeToString(s[:8])
}

// savedResult is the file each run leaves under .bench_build/results,
// read back by -compare.
type savedResult struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Trace       bool               `json:"trace"`
	Fingerprint string             `json:"fingerprint"`
	Host        hostRecord         `json:"host"`
	Metrics     map[string]float64 `json:"metrics"`
	Notes       map[string]string  `json:"notes"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var e env
	var trace int
	fs.StringVar(&e.workload, "workload", "", "workload: serve-bursty, solve-dense or session-churn")
	fs.Int64Var(&e.seed, "seed", 1, "input seed")
	fs.Float64Var(&e.seconds, "seconds", 25, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced (per-layer) run instead of the end-to-end run")
	fs.BoolVar(&e.short, "short", false, "small inputs and phases, for self-tests")
	fs.StringVar(&e.root, "root", ".", "repository root")
	fs.StringVar(&e.daemon, "daemon", "", "gapschedd binary")
	compare := fs.Bool("compare", false, "compare two saved result files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare takes two result files")
			return 2
		}
		return compareResults(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w, ok := workloads[e.workload]
	if !ok || (trace != 0 && trace != 1) || e.seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (serve-bursty, solve-dense, session-churn), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	if e.daemon == "" {
		fmt.Fprintln(stderr, "perfbench: -daemon is required (run.sh builds it)")
		return 2
	}
	e.nproc = min(2, runtime.NumCPU())
	host := readHost(e.root)
	fmt.Fprintf(stdout, "host %s commit=%s source=%s\n", host.machine(), host.Commit, host.Source)

	runFn, defs := w.run, e2eMetrics
	if trace == 1 {
		runFn, defs = w.trace, layerMetrics
	}
	start := time.Now()
	rep, err := runFn(&e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", e.workload, err)
		return 1
	}
	for _, l := range rep.extra {
		fmt.Fprintln(stdout, l)
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, map[string]map[string]any{}}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured\n", e.workload, d.name)
			return 1
		}
		fmt.Fprintf(stdout, "metric %-28s %14.6g %-12s %s\n", d.name, v, d.unit, rep.notes[d.name])
		out.Metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	if trace == 0 {
		for _, d := range reportMetrics {
			if v, ok := rep.metrics[d.name]; ok {
				fmt.Fprintf(stdout, "metric %-28s %14.6g %-12s %s (report only)\n", d.name, v, d.unit, rep.notes[d.name])
			}
		}
	}
	fmt.Fprintf(stdout, "run workload=%s seed=%d trace=%d wall=%.1fs\n", e.workload, e.seed, trace, time.Since(start).Seconds())
	if err := saveResult(&e, trace == 1, host, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !rep.correct || rep.failed > 0 {
		return 1
	}
	return 0
}

func saveResult(e *env, traced bool, host hostRecord, rep *report) error {
	dir, err := e.outDir("results")
	if err != nil {
		return err
	}
	res := savedResult{Workload: e.workload, Seed: e.seed, Trace: traced,
		Fingerprint: rep.notes["fingerprint"], Host: host, Metrics: rep.metrics, Notes: rep.notes}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", e.workload, e.seed, map[bool]int{false: 0, true: 1}[traced])
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// compareResults prints old and new values of every metric the two
// result files share. Results measured on different machines are
// flagged, and no ratio is printed for them.
func compareResults(oldPath, newPath string, stdout, stderr io.Writer) int {
	var rs [2]savedResult
	for i, p := range []string{oldPath, newPath} {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &rs[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", p, err)
			return 1
		}
	}
	sameHost := rs[0].Host.machine() == rs[1].Host.machine()
	if !sameHost {
		fmt.Fprintf(stdout, "HOST MISMATCH: old %s\n               new %s\n", rs[0].Host.machine(), rs[1].Host.machine())
	}
	if rs[0].Fingerprint != rs[1].Fingerprint {
		fmt.Fprintf(stdout, "INPUT MISMATCH: fingerprints %s and %s differ\n", rs[0].Fingerprint, rs[1].Fingerprint)
	}
	var names []string
	for k := range rs[0].Metrics {
		if _, ok := rs[1].Metrics[k]; ok {
			names = append(names, k)
		}
	}
	slices.Sort(names)
	for _, k := range names {
		o, n := rs[0].Metrics[k], rs[1].Metrics[k]
		ratio := "n/a (different hosts)"
		if sameHost && o != 0 {
			ratio = fmt.Sprintf("%.3fx", n/o)
		}
		fmt.Fprintf(stdout, "%-28s %14.6g %14.6g  %s\n", k, o, n, ratio)
	}
	return 0
}
