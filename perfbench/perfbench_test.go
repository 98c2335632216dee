package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// daemonBin is the gapschedd binary the short runs drive, built once.
var daemonBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	daemonBin = filepath.Join(dir, "gapschedd")
	out, err := exec.Command("go", "build", "-o", daemonBin, "repro/cmd/gapschedd").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		panic("building gapschedd: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestShortRuns runs every workload briefly, end-to-end and traced, and
// checks the output contract: every metric printed by name with its
// unit, all answers correct, and the final JSON line well formed.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the daemon")
	}
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"-workload", name, "-seed", "3", "-seconds", "1", "-trace", trace,
					"-short", "-root", "..", "-daemon", daemonBin}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := e2eMetrics
				if trace == "1" {
					defs = layerMetrics
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics in the result, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Value == nil || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
					if !regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(d.name) + ` +\S+ ` + regexp.QuoteMeta(d.unit) + ` `).MatchString(stdout.String()) {
						t.Errorf("no report line for %s with unit %s", d.name, d.unit)
					}
				}
				if trace == "0" {
					if !regexp.MustCompile(`(?m)^metric error_rate +0 ratio `).MatchString(stdout.String()) {
						t.Errorf("error_rate is not 0:\n%s", stdout.String())
					}
					if name == "serve-bursty" && !regexp.MustCompile(`(?m)^metric max_rate_rps +\S+ req/s `).MatchString(stdout.String()) {
						t.Errorf("no max_rate_rps line")
					}
					for _, k := range []string{"latency_p50_ms", "latency_tail_ms"} {
						if !regexp.MustCompile(`(?m)^metric ` + k + ` .*samples=\d+`).MatchString(stdout.String()) {
							t.Errorf("%s printed without its sample count", k)
						}
					}
				}
				if !regexp.MustCompile(`(?m)^host cpu=".*" nproc=\d+ gomaxprocs=\d+ go=\S+ commit=\S+ source=\S+$`).MatchString(stdout.String()) {
					t.Errorf("no host record line")
				}
			})
		}
	}
}

// TestFingerprints checks that a seed fixes every workload's inputs.
func TestFingerprints(t *testing.T) {
	prints := func(seed int64) []string {
		b, err := newBurstyInputs(seed, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.next(100); err != nil {
			t.Fatal(err)
		}
		cls, _, _ := churnInputs(&env{seed: seed, short: true, nproc: 2})
		return []string{b.fingerprint(), fingerprint(instances(denseInputs(seed, 10, 2))), fingerprint(cls)}
	}
	a, b, c := prints(5), prints(5), prints(6)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("input %d: seed 5 gave fingerprints %s and %s", i, a[i], b[i])
		}
		if a[i] == c[i] {
			t.Errorf("input %d: seeds 5 and 6 share fingerprint %s", i, a[i])
		}
	}
}

// TestTail checks the tail rule: the highest ladder percentile with at
// least ten samples beyond it.
func TestTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int
	}{{2000, 99}, {1000, 99}, {999, 90}, {100, 90}, {99, 50}, {8, 50}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i)
		}
		if _, p := tail(xs); p != tc.want {
			t.Errorf("n=%d: tail at p%d, want p%d", tc.n, p, tc.want)
		}
	}
}

// TestNoRepository checks that the benchmark refuses to run where the
// program's sources are missing.
func TestNoRepository(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command("bash", filepath.Join(mustAbs(t, "run.sh")), "--workload", "serve-bursty", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("run.sh succeeded without a repository:\n%s", out)
	}
	if strings.Contains(string(out), `"correct"`) {
		t.Fatalf("run.sh printed a result without a repository:\n%s", out)
	}
}

func mustAbs(t *testing.T, p string) string {
	a, err := filepath.Abs(p)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
