// Command benchcmp is the CI bench-regression gate: a benchstat-style
// comparison of `go test -bench` output against a committed baseline
// (BENCH_BASELINE.json at the repository root). By default it is
// warn-only — one-shot (-benchtime=1x) timings on shared CI runners
// are noisy, so regressions surface as GitHub warning annotations
// instead of failures; treating them as signals, not verdicts, keeps
// the job honest without flaking the build.
//
// -fail-families promotes selected benchmark families to a hard gate:
// a comma-separated list of name prefixes (matched against the part
// after "Benchmark", so "E16_" covers BenchmarkE16_BatchSolve and its
// sub-benchmarks). A family benchmark regressing beyond
// -fail-threshold percent fails the run with exit status 3 and a
// GitHub error annotation; everything else stays warn-only. The fail
// threshold is deliberately looser than the warn threshold — only the
// headline solver-path families are gated, and only on regressions big
// enough to stand out of one-shot noise.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchtime=1x -count=3 . | benchcmp -baseline BENCH_BASELINE.json
//	go test -run='^$' -bench=. -benchtime=1x -count=3 . | benchcmp -baseline BENCH_BASELINE.json -update
//	... | benchcmp -baseline BENCH_BASELINE.json -fail-families 'E1_,E16_,E17_,E19_,E20_,E21_'
//
// Multiple -count runs of one benchmark are folded to their minimum
// ns/op (the least-noise estimator for one-shot runs); the trailing
// -N GOMAXPROCS suffix is stripped so baselines compare across
// machines. -update rewrites the baseline entries the input has and
// keeps the others, so one family can be re-measured alone.
//
// The baseline records the host it was measured on (CPU model, nproc,
// GOMAXPROCS, Go version), taken from the machine benchcmp runs on —
// run it in the same pipeline as `go test`. A comparison against a
// baseline from another host, or one that records none, opens with a
// cross-host warning: its deltas then measure the machines as well as
// the code. The warning changes no threshold and no exit status.
//
// Exit status: 0 on success (warnings included), 1 on I/O or
// parse failures, 2 on command-line errors, 3 when a gated family
// regressed beyond -fail-threshold.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cli"
)

// baselineFile is the committed JSON schema.
type baselineFile struct {
	// Note documents how the numbers were produced.
	Note string `json:"note"`
	// Host is the machine of the last -update; nil in baselines
	// written before hosts were recorded.
	Host *hostRecord `json:"host,omitempty"`
	// Benchmarks maps normalized benchmark names to ns/op.
	Benchmarks map[string]float64 `json:"benchmarks"`
}

// hostRecord identifies the machine a set of timings was measured on.
type hostRecord struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
}

func (h hostRecord) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s", h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion)
}

// currentHost describes the machine this process runs on.
func currentHost() hostRecord {
	h := hostRecord{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
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

// hostWarning returns the cross-host annotation for comparing a
// baseline measured on base (nil: not recorded) with a run on cur, or
// "" when both are the same machine.
func hostWarning(base *hostRecord, cur hostRecord) string {
	switch {
	case base == nil:
		return fmt.Sprintf("::warning title=cross-host baseline::BENCH_BASELINE.json records no host; this run is on %s, so deltas may measure the machines as well as the code\n", cur)
	case *base != cur:
		return fmt.Sprintf("::warning title=cross-host baseline::BENCH_BASELINE.json was measured on %s; this run is on %s, so deltas measure the machines as well as the code\n", *base, cur)
	}
	return ""
}

// benchLine matches one result line of `go test -bench` output:
// name, iteration count, ns/op value (further metric pairs ignored).
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+)\s+ns/op`)

// gomaxprocsSuffix is the trailing -N that `go test` appends to
// benchmark names.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench folds bench output into min ns/op per normalized name.
func parseBench(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("benchcmp: bad ns/op in %q: %w", sc.Text(), err)
		}
		name := gomaxprocsSuffix.ReplaceAllString(m[1], "")
		if prev, ok := out[name]; !ok || ns < prev {
			out[name] = ns
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchcmp: reading bench output: %w", err)
	}
	if len(out) == 0 {
		return nil, errors.New("benchcmp: no benchmark results in input")
	}
	return out, nil
}

func sortedNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// inFamilies reports whether a normalized benchmark name belongs to
// one of the gated families (prefixes matched after "Benchmark").
func inFamilies(name string, families []string) bool {
	tail := strings.TrimPrefix(name, "Benchmark")
	for _, f := range families {
		if strings.HasPrefix(tail, f) {
			return true
		}
	}
	return false
}

// compare prints a benchstat-style report: warning annotations for
// regressions beyond warnThreshold percent, error annotations for
// gated-family regressions beyond failThreshold percent. It returns
// the number of gated failures (the caller turns any into a non-zero
// exit) and, separately, the warn-only regression count.
func compare(baseline, current map[string]float64, warnThreshold, failThreshold float64, families []string, stdout io.Writer) (failures, regressions int) {
	fmt.Fprintf(stdout, "%-55s %12s %12s %8s\n", "benchmark", "baseline", "current", "delta")
	for _, name := range sortedNames(current) {
		cur := current[name]
		base, ok := baseline[name]
		if !ok {
			fmt.Fprintf(stdout, "%-55s %12s %12.0f %8s\n", name, "(new)", cur, "-")
			continue
		}
		delta := 100 * (cur - base) / base
		mark := ""
		switch {
		case delta > failThreshold && inFamilies(name, families):
			mark = "  ← FAIL"
			failures++
			fmt.Fprintf(stdout, "::error title=bench regression::%s is %.0f%% slower than BENCH_BASELINE.json (%.0f → %.0f ns/op; gated family)\n",
				name, delta, base, cur)
		case delta > warnThreshold:
			mark = "  ← regression"
			regressions++
			fmt.Fprintf(stdout, "::warning title=bench regression::%s is %.0f%% slower than BENCH_BASELINE.json (%.0f → %.0f ns/op)\n",
				name, delta, base, cur)
		}
		fmt.Fprintf(stdout, "%-55s %12.0f %12.0f %+7.1f%%%s\n", name, base, cur, delta, mark)
	}
	for _, name := range sortedNames(baseline) {
		if _, ok := current[name]; !ok {
			fmt.Fprintf(stdout, "::warning title=bench missing::%s is in BENCH_BASELINE.json but produced no result\n", name)
			fmt.Fprintf(stdout, "%-55s %12.0f %12s %8s\n", name, baseline[name], "(gone)", "-")
		}
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "\n%d benchmark(s) regressed more than %.0f%% (warn-only; see annotations)\n", regressions, warnThreshold)
	}
	if failures > 0 {
		fmt.Fprintf(stdout, "\n%d gated benchmark(s) regressed more than %.0f%%\n", failures, failThreshold)
	}
	return failures, regressions
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		baselinePath = fs.String("baseline", "BENCH_BASELINE.json", "committed baseline file")
		input        = fs.String("input", "-", "bench output to read (- for stdin)")
		threshold    = fs.Float64("threshold", 20, "warn when ns/op grows more than this percent")
		failFams     = fs.String("fail-families", "", "comma-separated benchmark family prefixes (matched after \"Benchmark\") whose regressions fail the run")
		failThresh   = fs.Float64("fail-threshold", 30, "fail when a gated family's ns/op grows more than this percent")
		update       = fs.Bool("update", false, "rewrite the baseline entries the input has, and its host record, instead of comparing")
		note         = fs.String("note", "go test -run='^$' -bench=. -benchtime=1x -count=3 . (min of 3)", "provenance note stored with -update")
	)
	if err := cli.Parse(fs, args); err != nil {
		return cli.Status(err)
	}

	in := stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			fmt.Fprintf(stderr, "benchcmp: %v\n", err)
			return 1
		}
		defer f.Close()
		in = f
	}
	current, err := parseBench(in)
	if err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 1
	}

	host := currentHost()
	if *update {
		fromInput := len(current)
		if raw, err := os.ReadFile(*baselinePath); err == nil {
			var old baselineFile
			if err := json.Unmarshal(raw, &old); err != nil {
				fmt.Fprintf(stderr, "benchcmp: parsing %s: %v\n", *baselinePath, err)
				return 1
			}
			for name, ns := range old.Benchmarks {
				if _, ok := current[name]; !ok {
					current[name] = ns
				}
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(stderr, "benchcmp: %v\n", err)
			return 1
		}
		buf, err := json.MarshalIndent(baselineFile{Note: *note, Host: &host, Benchmarks: current}, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "benchcmp: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*baselinePath, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "benchcmp: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d benchmarks (%d from the input) to %s\n", len(current), fromInput, *baselinePath)
		return 0
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchcmp: %v\n", err)
		return 1
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(stderr, "benchcmp: parsing %s: %v\n", *baselinePath, err)
		return 1
	}
	var families []string
	for _, f := range strings.Split(*failFams, ",") {
		if f = strings.TrimSpace(f); f != "" {
			families = append(families, f)
		}
	}
	fmt.Fprint(stdout, hostWarning(base.Host, host))
	failures, _ := compare(base.Benchmarks, current, *threshold, *failThresh, families, stdout)
	if failures > 0 {
		return 3
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}
