package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// labelBlock renders k,v label pairs as a Prometheus label block,
// {k1="v1",k2="v2"}, escaping backslash, double-quote and newline in
// values. It doubles as the series-identity suffix in registry keys.
func labelBlock(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// withLabel re-renders a series key with one extra label appended —
// used for the quantile lines of histogram exposition.
func withLabel(labels []string, k, v string) string {
	all := make([]string, 0, len(labels)+2)
	all = append(all, labels...)
	all = append(all, k, v)
	return labelBlock(all)
}

// WritePrometheus renders every registered series in Prometheus text
// exposition format (version 0.0.4). Families are sorted by name and
// emit one # TYPE line each. Histograms are rendered as summaries —
// quantile-labeled gauge lines plus _sum and _count — with all fields
// taken from one Summary() snapshot, so count and quantiles are always
// mutually consistent; durations are exposed in seconds per Prometheus
// convention.
func (r *Registry) WritePrometheus(w io.Writer) {
	metrics := r.snapshotMetrics()
	sort.SliceStable(metrics, func(i, j int) bool {
		if metrics[i].name != metrics[j].name {
			return metrics[i].name < metrics[j].name
		}
		return metrics[i].key < metrics[j].key
	})
	lastFamily := ""
	for _, m := range metrics {
		if m.name != lastFamily {
			lastFamily = m.name
			typ := "counter"
			switch m.kind {
			case kindGauge, kindGaugeFunc:
				typ = "gauge"
			case kindHist:
				typ = "summary"
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", m.name, typ)
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(w, "%s %d\n", m.key, m.c.Load())
		case kindGauge:
			fmt.Fprintf(w, "%s %d\n", m.key, m.g.Load())
		case kindGaugeFunc:
			fmt.Fprintf(w, "%s %g\n", m.key, m.fn())
		case kindHist:
			s := m.h.Summary()
			fmt.Fprintf(w, "%s%s %g\n", m.name, withLabel(m.labels, "quantile", "0.5"), s.P50.Seconds())
			fmt.Fprintf(w, "%s%s %g\n", m.name, withLabel(m.labels, "quantile", "0.95"), s.P95.Seconds())
			fmt.Fprintf(w, "%s%s %g\n", m.name, withLabel(m.labels, "quantile", "0.99"), s.P99.Seconds())
			fmt.Fprintf(w, "%s_sum%s %g\n", m.name, labelBlock(m.labels), s.Sum.Seconds())
			fmt.Fprintf(w, "%s_count%s %d\n", m.name, labelBlock(m.labels), s.N)
		}
	}
}

// histJSON is the JSON shape of one histogram series in Snapshot.
type histJSON struct {
	N    uint64  `json:"n"`
	Mean float64 `json:"mean_s"`
	Min  float64 `json:"min_s"`
	Max  float64 `json:"max_s"`
	P50  float64 `json:"p50_s"`
	P95  float64 `json:"p95_s"`
	P99  float64 `json:"p99_s"`
	Sum  float64 `json:"sum_s"`
}

func histToJSON(s HistSummary) histJSON {
	sec := func(d time.Duration) float64 { return d.Seconds() }
	if s.N == 0 {
		return histJSON{}
	}
	return histJSON{N: s.N, Mean: sec(s.Mean), Min: sec(s.Min), Max: sec(s.Max),
		P50: sec(s.P50), P95: sec(s.P95), P99: sec(s.P99), Sum: sec(s.Sum)}
}

// Snapshot returns every series as a plain series-key→value map:
// counters and gauges as integers, gauge funcs as floats, histograms as
// summary objects. This is what expvar and the -telemetry end-of-run
// dumps serialize.
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	for _, m := range r.snapshotMetrics() {
		switch m.kind {
		case kindCounter:
			out[m.key] = m.c.Load()
		case kindGauge:
			out[m.key] = m.g.Load()
		case kindGaugeFunc:
			out[m.key] = m.fn()
		case kindHist:
			out[m.key] = histToJSON(m.h.Summary())
		}
	}
	return out
}

// WriteJSON dumps the snapshot as indented JSON with sorted keys (the
// encoding/json map behavior), for -telemetry flags.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteJSONFile writes the WriteJSON dump to the file at path, or to
// stdout for "-": the one -telemetry sink of every binary.
func (r *Registry) WriteJSONFile(path string, stdout io.Writer) error {
	if path == "-" {
		return r.WriteJSON(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
