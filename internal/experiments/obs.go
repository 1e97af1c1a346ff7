package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"hyperprof/internal/obs"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
)

// ObsStudy is the observability study: a characterization run with the
// metrics plane enabled, condensed into exportable per-platform time series.
// It is the simulated analogue of pointing the fleet's continuous profiler
// and monitoring stack at one representative day.
type ObsStudy struct {
	Cfg StudyConfig
	// Char is the underlying characterization (profiles, traces, inventory).
	Char *Characterization
	// Series is each platform's observability snapshot, in sorted-name order.
	Series map[taxonomy.Platform][]obs.Series
}

// Observe runs the characterization workload with the observability plane
// forced on and returns the collected time series alongside the underlying
// characterization. Equal configs replay bit-identically and the export is
// byte-identical between sequential and parallel runs.
func (cfg StudyConfig) Observe() (*ObsStudy, error) {
	cfg.Obs.Enabled = true
	ch, err := cfg.Characterize()
	if err != nil {
		return nil, err
	}
	return &ObsStudy{Cfg: cfg, Char: ch, Series: ch.Series}, nil
}

// platformSeries is the JSON export shape: one entry per platform, in
// taxonomy.Platforms() order.
type platformSeries struct {
	Platform string       `json:"platform"`
	Series   []obs.Series `json:"series"`
}

// MarshalPlatformSeries renders per-platform time series as one compact JSON
// document in taxonomy.Platforms() order — the canonical export the
// determinism tests pin byte-for-byte.
func MarshalPlatformSeries(m map[taxonomy.Platform][]obs.Series) ([]byte, error) {
	out := make([]platformSeries, 0, len(taxonomy.Platforms()))
	for _, p := range taxonomy.Platforms() {
		out = append(out, platformSeries{Platform: string(p), Series: m[p]})
	}
	return json.Marshal(out)
}

// CounterTracks converts per-platform series into Chrome-trace counter
// tracks, one process row per platform, so metrics render as step charts
// alongside query intervals and fault marks in the same document.
func CounterTracks(m map[taxonomy.Platform][]obs.Series) []trace.CounterTrack {
	var tracks []trace.CounterTrack
	for _, p := range taxonomy.Platforms() {
		for _, s := range m[p] {
			pts := make([]trace.CounterPoint, len(s.Points))
			for i, pt := range s.Points {
				pts[i] = trace.CounterPoint{At: pt.T, Value: pt.V}
			}
			tracks = append(tracks, trace.CounterTrack{
				Process: string(p),
				Name:    s.Name,
				Points:  pts,
			})
		}
	}
	return tracks
}

// RenderObs renders a per-platform summary of the collected series: count,
// sampling interval, and the final value of a few headline series.
func RenderObs(o *ObsStudy) string {
	var b strings.Builder
	interval := o.Cfg.Obs.Interval
	if interval <= 0 {
		interval = obs.DefaultConfig().Interval
	}
	fmt.Fprintf(&b, "Observability study (seed %d, sampling every %s of virtual time)\n",
		o.Cfg.Seed, interval)
	fmt.Fprintf(&b, "%-10s %7s %9s %10s  %s\n", "platform", "series", "samples", "elapsed", "headline (final values)")
	for _, p := range taxonomy.Platforms() {
		series := o.Series[p]
		samples := 0
		for _, s := range series {
			if len(s.Points) > samples {
				samples = len(s.Points)
			}
		}
		fmt.Fprintf(&b, "%-10s %7d %9d %10s  %s\n",
			p, len(series), samples, o.Char.Elapsed[p].Round(time.Millisecond), headline(series))
	}
	return b.String()
}

// headline picks a few recognizable series and reports their last value.
func headline(series []obs.Series) string {
	wanted := []string{
		"rpc.calls", "rpc.retries", "rpc.sheds",
		"spanner.consensus.rounds", "bigtable.compactions.minor", "bigquery.shuffle.bytes",
	}
	var parts []string
	for _, w := range wanted {
		for _, s := range series {
			if s.Name == w && len(s.Points) > 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", w, s.Points[len(s.Points)-1].V))
				break
			}
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}
