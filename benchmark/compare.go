package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"repro/internal/stats"
)

// reportSet is one -out file: its untraced and traced reports, each
// grouped by workload.
type reportSet struct {
	untraced, traced map[string][]report
}

func readReports(path string) (reportSet, error) {
	set := reportSet{map[string][]report{}, map[string][]report{}}
	f, err := os.Open(path)
	if err != nil {
		return set, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return set, fmt.Errorf("%s: %w", path, err)
		}
		into := set.untraced
		if rep.Trace {
			into = set.traced
		}
		into[rep.Workload] = append(into[rep.Workload], rep)
	}
	return set, sc.Err()
}

// compareFiles prints, per workload and end-to-end metric, the median
// of each file's untraced runs, the relative change from a to b and the
// bound, and returns non-zero when b is worse than a beyond a bound, a
// run was incorrect, b failed a larger share of its ops, or traced runs
// of one seed disagree on an exact count.
func compareFiles(a, b string, stdout, stderr io.Writer) int {
	sa, err := readReports(a)
	if err == nil && len(sa.untraced) == 0 {
		err = fmt.Errorf("%s: no untraced report", a)
	}
	var sb reportSet
	if err == nil {
		sb, err = readReports(b)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	ra, rb, ta, tb := sa.untraced, sb.untraced, sa.traced, sb.traced
	bad := 0
	fmt.Fprintf(stdout, "%-15s %-16s %14s %14s %9s %7s\n", "workload", "metric", "a (median)", "b (median)", "change", "bound")
	for _, wl := range workloads {
		as, bs := ra[wl.Name], rb[wl.Name]
		if len(as) == 0 {
			continue
		}
		if len(bs) == 0 {
			fmt.Fprintf(stdout, "%-15s missing from %s\n", wl.Name, b)
			bad++
			continue
		}
		for _, d := range endToEnd {
			ma, mb := medianOf(as, d.Name), medianOf(bs, d.Name)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > d.Bound {
				verdict = "  REGRESSION"
				bad++
			}
			fmt.Fprintf(stdout, "%-15s %-16s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n",
				wl.Name, d.Name, ma, mb, 100*(mb-ma)/ma, 100*d.Bound, verdict)
		}
		fa, fb := failedShare(as), failedShare(bs)
		verdict := ""
		if fb > fa {
			verdict = "  REGRESSION"
			bad++
		}
		fmt.Fprintf(stdout, "%-15s %-16s %14.6g %14.6g %9s %7s%s\n", wl.Name, "failed_share", fa, fb, "", "none", verdict)
		for _, rep := range append(as, bs...) {
			if !rep.Correct {
				fmt.Fprintf(stdout, "%-15s seed %d INCORRECT: %v\n", wl.Name, rep.Seed, rep.Problems)
				bad++
			}
		}
	}
	// Counts and simulated statistics of one seed must repeat exactly.
	for _, wl := range workloads {
		for _, x := range ta[wl.Name] {
			for _, y := range tb[wl.Name] {
				if x.Seed != y.Seed || x.Scale != y.Scale {
					continue
				}
				for _, d := range perLayer {
					if d.Exact && x.Metrics[d.Name] != y.Metrics[d.Name] {
						fmt.Fprintf(stdout, "%-15s seed %d %s: %v in a, %v in b, must be identical\n",
							wl.Name, x.Seed, d.Name, x.Metrics[d.Name], y.Metrics[d.Name])
						bad++
					}
				}
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d beyond bound, incorrect or not identical\n", bad)
		return 1
	}
	return 0
}

func medianOf(reps []report, name string) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = r.Metrics[name]
	}
	return stats.Median(xs)
}

func failedShare(reps []report) float64 {
	var failed, attempted int
	for _, r := range reps {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
