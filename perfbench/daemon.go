package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/sched"
)

// daemon is one running gapschedd process on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has been waited for
	err  error         // Wait's result, valid after done
}

// startDaemon execs the gapschedd binary with its default flags on a
// free loopback port and returns once /healthz answers.
func startDaemon(bin string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stdout, cmd.Stderr = nil, nil // the per-request log lines go to the null device
	// Should the benchmark itself be killed, the daemon goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting gapschedd: %w", err)
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(10 * time.Second)
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("gapschedd exited before becoming ready: %v", d.err)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("gapschedd did not become ready within 10s")
		}
	}
}

// stop terminates the daemon (SIGTERM, then SIGKILL after 5s) and
// waits until it has exited.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// procStat is a snapshot of a process's CPU time and peak RSS.
type procStat struct {
	cpu    time.Duration // user+sys
	peakMB float64       // VmHWM
}

// readProcStat reads /proc/<pid>/{stat,status}. pid 0 means this process.
func readProcStat(pid int) (procStat, error) {
	dir := "/proc/self"
	if pid != 0 {
		dir = "/proc/" + strconv.Itoa(pid)
	}
	var ps procStat
	b, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return ps, fmt.Errorf("short %s/stat", dir)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return ps, fmt.Errorf("parsing %s/stat", dir)
	}
	ps.cpu = time.Duration(ut+st) * 10 * time.Millisecond
	b, err = os.ReadFile(dir + "/status")
	if err != nil {
		return ps, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return ps, fmt.Errorf("parsing VmHWM: %w", err)
			}
			ps.peakMB = kb / 1024
		}
	}
	return ps, nil
}

// selfCPU returns this process's user+sys CPU time at full resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// newClient returns an HTTP client that keeps at most conns
// connections to one host alive and reuses them.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// post sends one JSON body and returns the status and response body.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// get fetches one URL's body.
func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// solveCost decodes a /v1/solve (or session solve) response and returns
// the cost under the request's objective. Non-2xx statuses and wire
// errors are failures.
func solveCost(status int, body []byte, objective string) (float64, error) {
	if status/100 != 2 {
		return 0, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	resp, err := sched.DecodeSolveResponse(bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if resp.Err != nil {
		return 0, resp.Err
	}
	if objective == sched.WirePower {
		return resp.Power, nil
	}
	return float64(resp.Spans), nil
}

// mustJSON marshals a wire value the benchmark built itself.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire structs always marshal
	}
	return b
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

// setupMedian runs setup reps times, keeping the last result, and
// returns it with the median setup time in seconds. Every result but
// the last is released with drop.
func setupMedian[T any](reps int, setup func() (T, error), drop func(T)) (T, float64, error) {
	var times []float64
	var last T
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < reps-1 {
			drop(v)
		} else {
			last = v
		}
	}
	return last, median(times), nil
}
