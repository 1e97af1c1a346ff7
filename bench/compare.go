package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// summary is a metric's median and quartiles over n samples.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// summarize computes the quartiles the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method).
func summarize(values []float64) summary {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{d[0], d[0], d[0], 1}
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return summary{Median: q(2), Q1: q(1), Q3: q(3), N: n}
}

// stamp is the environment a result was measured in.
type stamp struct {
	Go         string `json:"go"`
	OS         string `json:"goos"`
	Arch       string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

func newStamp(seed uint64) stamp {
	s := stamp{
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPU: "unknown", Commit: "unknown", Seed: seed,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// Look for a repository in the working directory only, never above it.
	if wd, err := os.Getwd(); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		if out, err := cmd.Output(); err == nil {
			s.Commit = strings.TrimSpace(string(out))
		}
	}
	return s
}

func loadResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return &r, nil
}

// verdict compares a metric's parent samples a with the change's samples b.
// A gain needs the change to win at least nine tenths of the rep pairs and
// a median gap wider than the parent's interquartile spread. A metric
// without a bound reads worse only by the mirror of that rule. Where the
// parent's spread exceeds the bound, no regression can be shown either, and
// the pairing is unresolved unless every change rep beats every parent rep.
func verdict(m metric, a, b []float64) string {
	sa, sb := summarize(a), summarize(b)
	if sa.N == 0 || sb.N == 0 {
		return "unresolved"
	}
	// worse(x, y): x reads worse than y.
	worse := func(x, y float64) bool { return x > y }
	if m.Better == "higher" {
		worse = func(x, y float64) bool { return x < y }
	}
	// gain reports whether samples y beat x by the nine-tenths rule.
	gain := func(x, y []float64, sx, sy summary) bool {
		wins, pairs := 0, min(len(x), len(y))
		for i := 0; i < pairs; i++ {
			if worse(x[i], y[i]) {
				wins++
			}
		}
		return worse(sx.Median, sy.Median) && float64(wins) >= 0.9*float64(pairs) &&
			math.Abs(sy.Median-sx.Median) > sa.Q3-sa.Q1
	}
	switch {
	case gain(a, b, sa, sb):
		return "better"
	case !m.gated() && gain(b, a, sb, sa):
		return "worse"
	case !m.gated():
		return "unresolved"
	}
	if sa.Q3-sa.Q1 > m.Bound*math.Abs(sa.Median) {
		for _, x := range a {
			for _, y := range b {
				if !worse(x, y) {
					return "unresolved"
				}
			}
		}
		return "better"
	}
	if math.Abs(sb.Median-sa.Median) > m.Bound*math.Abs(sa.Median) && worse(sb.Median, sa.Median) {
		return "worse"
	}
	return "unchanged"
}

// compareResults prints, per workload and end-to-end metric, both sides'
// medians and quartiles and a verdict, and flags digest changes. It reports
// whether any pairing got worse; results from different environments are
// refused.
func compareResults(w io.Writer, a, b *resultFile) (regressed bool, err error) {
	ea, eb := a.Env, b.Env
	ea.Commit, eb.Commit = "", ""
	if ea != eb {
		return false, fmt.Errorf("environment stamps differ:\n  %+v\n  %+v", a.Env, b.Env)
	}
	fmt.Fprintf(w, "parent %s  vs  change %s\n", a.Env.Commit, b.Env.Commit)
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name && b.Workloads[i].Traced == wa.Traced {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil || wa.Traced {
			continue
		}
		fmt.Fprintf(w, "\n%s\n", wa.Name)
		for sd, da := range wa.Digests {
			if db, ok := wb.Digests[sd]; ok && db != da {
				fmt.Fprintf(w, "  DIGEST CHANGED at seed %d: %s -> %s (simulated output differs)\n", sd, da, db)
			}
		}
		fmt.Fprintf(w, "  %-16s %-11s %24s %24s  %s\n", "metric", "unit", "parent med [q1,q3]", "change med [q1,q3]", "verdict")
		for _, m := range endToEnd {
			sa, sb := summarize(wa.Samples[m.Name]), summarize(wb.Samples[m.Name])
			v := verdict(m, wa.Samples[m.Name], wb.Samples[m.Name])
			regressed = regressed || v == "worse"
			fmt.Fprintf(w, "  %-16s %-11s %24s %24s  %s\n", m.Name, m.Unit, fmtSummary(sa), fmtSummary(sb), v)
		}
		fa, fb := wa.failedFrac(), wb.failedFrac()
		v := "unchanged"
		if fb > fa {
			v, regressed = "worse", true
		} else if fb < fa {
			v = "better"
		}
		fmt.Fprintf(w, "  %-16s %-11s %24.3f %24.3f  %s\n", "failed_runs_frac", "fraction", fa, fb, v)
	}
	return regressed, nil
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.4g [%.4g,%.4g]", s.Median, s.Q1, s.Q3)
}
