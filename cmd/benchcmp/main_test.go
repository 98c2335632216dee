package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
BenchmarkE1_MultiprocExact/n=12-16         1    250000 ns/op    245 states/op
BenchmarkE1_MultiprocExact/n=12-16         1    200000 ns/op    245 states/op
BenchmarkE1_MultiprocExact/n=12-16         1    300000 ns/op    245 states/op
BenchmarkE16_BatchSolve/gaps-16            1   1000000 ns/op
PASS
`

func TestParseBenchTakesMinAndStripsSuffix(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(got), got)
	}
	if ns := got["BenchmarkE1_MultiprocExact/n=12"]; ns != 200000 {
		t.Errorf("min ns/op = %v, want 200000", ns)
	}
	if _, ok := got["BenchmarkE16_BatchSolve/gaps"]; !ok {
		t.Errorf("GOMAXPROCS suffix not stripped: %v", got)
	}
}

func TestParseBenchRejectsEmpty(t *testing.T) {
	if _, err := parseBench(strings.NewReader("PASS\n")); err == nil {
		t.Fatal("accepted input with no benchmarks")
	}
}

func TestCompareFlagsRegressionsNewAndMissing(t *testing.T) {
	baseline := map[string]float64{
		"BenchmarkStable":  1000,
		"BenchmarkSlower":  1000,
		"BenchmarkRemoved": 1000,
	}
	current := map[string]float64{
		"BenchmarkStable": 1100, // +10%: under threshold
		"BenchmarkSlower": 1500, // +50%: regression
		"BenchmarkNew":    42,
	}
	var out bytes.Buffer
	if fails, n := compare(baseline, current, 20, 30, nil, &out); n != 1 || fails != 0 {
		t.Fatalf("compare found %d regressions / %d failures, want 1 / 0:\n%s", n, fails, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"::warning title=bench regression::BenchmarkSlower",
		"::warning title=bench missing::BenchmarkRemoved",
		"(new)",
		"← regression",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "::warning title=bench regression::BenchmarkStable") {
		t.Errorf("under-threshold delta flagged:\n%s", text)
	}
}

// New benchmarks — present in the run but absent from the committed
// baseline, the state right after a PR adds an experiment — must
// report as "(new)" and never warn or count as regressions, no matter
// how slow they are or how many there are.
func TestCompareNewBenchmarksNeverWarn(t *testing.T) {
	baseline := map[string]float64{"BenchmarkOld": 1000}
	cases := []struct {
		name    string
		current map[string]float64
	}{
		{"one new", map[string]float64{
			"BenchmarkOld": 1000,
			"BenchmarkE19_IncrementalSession/gaps/incremental": 200000,
		}},
		{"new and huge", map[string]float64{
			"BenchmarkOld": 1000,
			"BenchmarkNew": 1e12,
		}},
		{"several new", map[string]float64{
			"BenchmarkOld":  1000,
			"BenchmarkNewA": 5,
			"BenchmarkNewB": 50,
			"BenchmarkNewC": 500000,
		}},
		{"all new", map[string]float64{
			"BenchmarkOnlyNew": 777,
		}},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if fails, n := compare(baseline, c.current, 20, 30, []string{"New", "E19_"}, &out); n != 0 || fails != 0 {
			t.Errorf("%s: %d regressions / %d failures from new benchmarks:\n%s", c.name, n, fails, out.String())
		}
		text := out.String()
		if strings.Contains(text, "::warning title=bench regression::") {
			t.Errorf("%s: new benchmark flagged as regression:\n%s", c.name, text)
		}
		for name := range c.current {
			if _, inBase := baseline[name]; !inBase && !strings.Contains(text, name) {
				t.Errorf("%s: new benchmark %s missing from report:\n%s", c.name, name, text)
			}
		}
		if !strings.Contains(text, "(new)") {
			t.Errorf("%s: no (new) marker:\n%s", c.name, text)
		}
	}
}

// End-to-end: -update writes a baseline that a subsequent comparison
// of the same input reads back with zero regressions; warn-only means
// exit 0 even when a regression is present.
func TestRunUpdateThenCompare(t *testing.T) {
	baseline := filepath.Join(t.TempDir(), "BENCH_BASELINE.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-baseline", baseline, "-update"},
		strings.NewReader(sampleBench), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("update exited %d: %s", code, stderr.String())
	}
	if _, err := os.Stat(baseline); err != nil {
		t.Fatal(err)
	}

	stdout.Reset()
	code = run([]string{"-baseline", baseline},
		strings.NewReader(sampleBench), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("compare exited %d: %s", code, stderr.String())
	}
	if strings.Contains(stdout.String(), "::warning") {
		t.Fatalf("identical input produced warnings:\n%s", stdout.String())
	}

	// 10x slower input: warn, still exit 0.
	slower := strings.ReplaceAll(sampleBench, "1000000 ns/op", "9999999 ns/op")
	slower = strings.ReplaceAll(slower, "0000 ns/op", "00000 ns/op")
	stdout.Reset()
	code = run([]string{"-baseline", baseline},
		strings.NewReader(slower), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("regressed compare exited %d, want 0 (warn-only): %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "::warning title=bench regression::") {
		t.Fatalf("regression not flagged:\n%s", stdout.String())
	}
}

// Gated families: a regression beyond -fail-threshold in a family
// named by -fail-families exits 3 with an error annotation; the same
// regression outside the gated families stays warn-only.
func TestCompareGatedFamiliesFail(t *testing.T) {
	baseline := map[string]float64{
		"BenchmarkE16_BatchSolve/gaps":  1000,
		"BenchmarkE10_Greedy3Approx":    1000,
		"BenchmarkE1_MultiprocExact/dp": 1000,
	}
	current := map[string]float64{
		"BenchmarkE16_BatchSolve/gaps":  1500, // +50%: gated → fail
		"BenchmarkE10_Greedy3Approx":    1500, // +50%: ungated → warn
		"BenchmarkE1_MultiprocExact/dp": 1250, // +25%: gated but under fail threshold → warn
	}
	var out bytes.Buffer
	fails, warns := compare(baseline, current, 20, 30, []string{"E1_", "E16_"}, &out)
	if fails != 1 || warns != 2 {
		t.Fatalf("compare found %d failures / %d warnings, want 1 / 2:\n%s", fails, warns, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "::error title=bench regression::BenchmarkE16_BatchSolve/gaps") {
		t.Errorf("gated regression not errored:\n%s", text)
	}
	if !strings.Contains(text, "::warning title=bench regression::BenchmarkE10_Greedy3Approx") {
		t.Errorf("ungated regression not warned:\n%s", text)
	}
	if !strings.Contains(text, "::warning title=bench regression::BenchmarkE1_MultiprocExact/dp") {
		t.Errorf("under-fail-threshold gated regression not warned:\n%s", text)
	}
	// E1_ must not gate E16's cousins by prefix confusion: E10 is not
	// in the E1_ family.
	if strings.Contains(text, "::error title=bench regression::BenchmarkE10") {
		t.Errorf("family prefix matched the wrong benchmark:\n%s", text)
	}
}

func TestRunFailFamiliesExitCode(t *testing.T) {
	baseline := filepath.Join(t.TempDir(), "BENCH_BASELINE.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-baseline", baseline, "-update"},
		strings.NewReader(sampleBench), &stdout, &stderr); code != 0 {
		t.Fatalf("update exited %d: %s", code, stderr.String())
	}
	slower := strings.ReplaceAll(sampleBench, "1000000 ns/op", "9999999 ns/op")
	stdout.Reset()
	code := run([]string{"-baseline", baseline, "-fail-families", "E16_"},
		strings.NewReader(slower), &stdout, &stderr)
	if code != 3 {
		t.Fatalf("gated regression exited %d, want 3:\n%s", code, stdout.String())
	}
	// Same regression with no gated families: warn-only, exit 0.
	stdout.Reset()
	if code := run([]string{"-baseline", baseline},
		strings.NewReader(slower), &stdout, &stderr); code != 0 {
		t.Fatalf("ungated regression exited %d, want 0:\n%s", code, stdout.String())
	}
}

func TestRunBadCommandLines(t *testing.T) {
	for _, args := range [][]string{{"-bogus"}, {"positional"}} {
		if code := run(args, strings.NewReader(""), &bytes.Buffer{}, &bytes.Buffer{}); code != 2 {
			t.Errorf("benchcmp %v exited %d, want 2", args, code)
		}
	}
	if code := run(nil, strings.NewReader("PASS"), &bytes.Buffer{}, &bytes.Buffer{}); code != 1 {
		t.Error("empty input should exit 1")
	}
}

// Cross-host comparisons are flagged, the way perfbench -compare
// flags them: a baseline from another machine, or one that records no
// host, gets one warning annotation; the same machine gets none.
func TestHostWarning(t *testing.T) {
	here := hostRecord{CPU: "Xeon", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"}
	other := func(edit func(*hostRecord)) *hostRecord {
		h := here
		edit(&h)
		return &h
	}
	cases := []struct {
		name string
		base *hostRecord
		want bool
	}{
		{"same host", &here, false},
		{"no host recorded", nil, true},
		{"other cpu", other(func(h *hostRecord) { h.CPU = "EPYC" }), true},
		{"other nproc", other(func(h *hostRecord) { h.NProc = 8 }), true},
		{"other gomaxprocs", other(func(h *hostRecord) { h.GOMAXPROCS = 1 }), true},
		{"other go", other(func(h *hostRecord) { h.GoVersion = "go1.23.4" }), true},
	}
	for _, c := range cases {
		got := hostWarning(c.base, here)
		if (got != "") != c.want {
			t.Errorf("%s: warning %q, want warning=%v", c.name, got, c.want)
		}
		if c.want && !strings.HasPrefix(got, "::warning title=cross-host baseline::") {
			t.Errorf("%s: %q is not a cross-host annotation", c.name, got)
		}
	}
}

// -update re-measures only what the input holds: entries absent from
// the input keep their values, and the host record is written.
func TestRunUpdateKeepsOtherEntries(t *testing.T) {
	baseline := filepath.Join(t.TempDir(), "BENCH_BASELINE.json")
	old := `{"note": "old", "benchmarks": {"BenchmarkKeep/x": 42, "BenchmarkE1_MultiprocExact/n=12": 7}}`
	if err := os.WriteFile(baseline, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-baseline", baseline, "-update"}, strings.NewReader(sampleBench), &stdout, &stderr); code != 0 {
		t.Fatalf("update exited %d: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	var got baselineFile
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Benchmarks["BenchmarkKeep/x"] != 42 {
		t.Fatalf("entry absent from the input was not kept: %v", got.Benchmarks)
	}
	if got.Benchmarks["BenchmarkE1_MultiprocExact/n=12"] != 200000 {
		t.Fatalf("entry present in the input was not rewritten: %v", got.Benchmarks)
	}
	if got.Host == nil || *got.Host != currentHost() {
		t.Fatalf("host record %+v, want %+v", got.Host, currentHost())
	}
}
