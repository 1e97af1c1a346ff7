package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hyperprof"
)

// repOut is what a rep child prints as its one line of standard output.
type repOut struct {
	Metrics map[string]float64 `json:"metrics"`
	Digest  string             `json:"digest"`
	// Err is a failed call, verdict or export; empty on success.
	Err string `json:"err,omitempty"`
}

// counters is a snapshot of the process-wide cost counters a rep reads
// around the study call.
type counters struct {
	at                       time.Time
	selfCPU, childCPU        float64 // seconds, user+sys
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64 // runtime/metrics CPU classes, seconds
	gcCycles                 uint64
}

var counterNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readCounters() counters {
	samples := make([]metrics.Sample, len(counterNames))
	for i, n := range counterNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	c := counters{
		allocBytes:   samples[0].Value.Uint64(),
		allocObjects: samples[1].Value.Uint64(),
		gcCPU:        samples[2].Value.Float64(),
		totalCPU:     samples[3].Value.Float64(),
		gcCycles:     samples[4].Value.Uint64(),
	}
	c.selfCPU = rusageCPU(syscall.RUSAGE_SELF)
	c.childCPU = rusageCPU(syscall.RUSAGE_CHILDREN)
	c.at = time.Now()
	return c
}

func rusageCPU(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMiB is this process's VmHWM, maxed with the largest reaped
// child's maximum resident set (exec workers).
func peakRSSMiB() float64 {
	var kb float64
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				kb, _ = strconv.ParseFloat(f[1], 64)
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru) == nil {
		kb = max(kb, float64(ru.Maxrss))
	}
	return kb / 1024
}

// call is one timed study call with its cost counters.
type call struct {
	res           result
	before, after counters
}

func (c call) wall() float64 { return c.after.at.Sub(c.before.at).Seconds() }

func (c call) cpu() float64 {
	return c.after.selfCPU - c.before.selfCPU + c.after.childCPU - c.before.childCPU
}

// timedCall makes one study call between two counter readings. The heap
// allocation counters lag by what each P's cached spans have handed out
// since they were fetched, which swamps a small total (the exec
// coordinator's); a collection flushes those caches, so one precedes each
// allocation reading, outside the timed call.
func timedCall(w *spec, seed uint64, parallel int) (call, error) {
	var c call
	var err error
	runtime.GC()
	c.before = readCounters()
	c.res, err = w.call(seed, parallel)
	c.after = readCounters()
	runtime.GC()
	flushed := readCounters()
	c.after.allocBytes, c.after.allocObjects = flushed.allocBytes, flushed.allocObjects
	return c, err
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runRep is the rep child: one study call with Parallel 0 in this fresh
// process, then the output checks.
func runRep(w *spec, seed uint64) repOut {
	c, err := timedCall(w, seed, 0)
	if err != nil {
		return repOut{Err: err.Error()}
	}
	out := repOut{Metrics: map[string]float64{
		"wall_s":      c.wall(),
		"cpu_s":       c.cpu(),
		"alloc_mb":    float64(c.after.allocBytes-c.before.allocBytes) / (1 << 20),
		"peak_rss_mb": peakRSSMiB(),
	}}
	if c.res.ops > 0 {
		out.Metrics["ops_per_s"] = float64(c.res.ops) / c.wall()
		out.Metrics["allocs_per_op"] = float64(c.after.allocObjects-c.before.allocObjects) / float64(c.res.ops)
	}
	art, err := c.res.artifact()
	switch {
	case err != nil:
		out.Err = fmt.Sprintf("export: %v", err)
	case c.res.verdict != nil:
		out.Err = c.res.verdict.Error()
	case c.res.ops <= 0:
		out.Err = "no operations completed"
	}
	out.Digest = digest(art)
	return out
}

// setupOut is what a set-up child prints.
type setupOut struct {
	SetupS float64 `json:"setup_s"`
	Err    string  `json:"err,omitempty"`
}

// runSetup is the set-up child: the untraced probe, the time before any
// simulated day can start.
func runSetup(seed uint64) setupOut {
	start := time.Now()
	if err := probe(nil, seed); err != nil {
		return setupOut{Err: err.Error()}
	}
	return setupOut{SetupS: time.Since(start).Seconds()}
}

// serveWorker is the exec-backend worker the safety_exec workload spawns.
func serveWorker() error { return hyperprof.ServeStudyWorker(os.Stdin, os.Stdout) }

// childTimeout bounds one child process, so a hung study cannot hold the
// benchmark past its deadline.
const childTimeout = 150 * time.Second

// child runs this executable with args in its own process group and
// decodes the JSON on the last line of its standard output into v. A timed
// out child is killed with its whole group (exec workers included) and
// reaped before child returns.
func child(ctx context.Context, v any, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("child %v: %w", args, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	last := lines[len(lines)-1]
	if err := json.Unmarshal([]byte(last), v); err != nil {
		return fmt.Errorf("child %v: decode %q: %w", args, last, err)
	}
	return nil
}
