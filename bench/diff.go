package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// summaryRow is one (workload, metric) over several runs.
type summaryRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Kind     string    `json:"kind"` // end_to_end or per_layer
	N        int       `json:"n"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Values   []float64 `json:"values"`
}

// loadRuns reads every results file of a comma-separated list.
func loadRuns(list string) ([]*Result, error) {
	var runs []*Result
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultsFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if f.Schema != schema {
			return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schema)
		}
		runs = append(runs, f.Runs...)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", list)
	}
	return runs, nil
}

// summarizeRuns groups runs by workload and metric, in first-seen order.
func summarizeRuns(runs []*Result) []summaryRow {
	type key struct{ wl, metric string }
	idx := map[key]int{}
	var rows []summaryRow
	collect := func(r *Result, kind string, ms map[string]Metric) {
		names := make([]string, 0, len(ms))
		for name := range ms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			k := key{r.Workload, name}
			i, ok := idx[k]
			if !ok {
				i = len(rows)
				idx[k] = i
				rows = append(rows, summaryRow{Workload: r.Workload, Metric: name, Unit: ms[name].Unit, Kind: kind})
			}
			rows[i].Values = append(rows[i].Values, ms[name].Value)
		}
	}
	for _, r := range runs {
		collect(r, "end_to_end", r.EndToEnd)
		collect(r, "per_layer", r.PerLayer)
	}
	for i := range rows {
		r := &rows[i]
		r.N = len(r.Values)
		r.Q1, r.Median, r.Q3 = quartiles(r.Values)
	}
	return rows
}

// summaryMain merges results files into one that also carries medians
// and quartiles (bench/baseline.json is made this way).
func summaryMain(paths []string, out string) int {
	if len(paths) == 0 || out == "" {
		fmt.Fprintln(os.Stderr, "usage: bench -summary -out merged.json a.json b.json ...")
		return 2
	}
	runs, err := loadRuns(strings.Join(paths, ","))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	file := &resultsFile{Schema: schema, Runs: runs, Summary: summarizeRuns(runs)}
	for _, r := range file.Summary {
		if r.Kind == "end_to_end" {
			fmt.Printf("%-12s %-18s n=%d median %14.4f  q1 %14.4f  q3 %14.4f %s\n",
				r.Workload, r.Metric, r.N, r.Median, r.Q1, r.Q3, r.Unit)
		}
	}
	if err := writeJSON(out, file); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// Verdicts of one diff row.
const (
	vImproved   = "improved"
	vWithin     = "within"
	vRegressed  = "regressed"
	vUnresolved = "unresolved"
)

// diffRow compares one (workload, metric) across two sets of runs.
type diffRow struct {
	Workload, Metric, Unit string
	Old, New               float64 // medians
	WorsePct               float64 // how much worse new is, as % of old; negative: better
	SpreadPct              float64 // wider of the two sets' IQR/median
	BoundPct               float64
	Verdict                string
}

// relSpread is the interquartile range as a share of the median.
func relSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// judge applies the benchmark's rule to one metric: regressed when the
// new median is worse than the old by more than the bound; unresolved
// when the run-to-run spread is wider than the bound, unless every new
// run reads better than every old run; improved when the medians differ
// by more than the old set's own spread.
func judge(m metricSpec, wl string, old, new []float64) diffRow {
	row := diffRow{Workload: wl, Metric: m.Name, Unit: m.Unit, BoundPct: 100 * m.Bound,
		Old: median(old), New: median(new)}
	sign := 1.0 // positive WorsePct means worse
	if m.Better == "higher" {
		sign = -1
	}
	if row.Old != 0 {
		row.WorsePct = 100 * sign * (row.New - row.Old) / math.Abs(row.Old)
	}
	row.SpreadPct = 100 * math.Max(relSpread(old), relSpread(new))

	allBetter := true
	for _, n := range new {
		for _, o := range old {
			if sign*(n-o) >= 0 {
				allBetter = false
			}
		}
	}
	// A gain has to clear the old set's own spread; a single old run has
	// none, so there it has to clear the bound.
	noise := 100 * relSpread(old)
	if len(old) < 2 {
		noise = row.BoundPct
	}
	switch {
	case row.SpreadPct > row.BoundPct && allBetter:
		row.Verdict = vImproved
	case row.SpreadPct > row.BoundPct:
		row.Verdict = vUnresolved
	case row.WorsePct > row.BoundPct:
		row.Verdict = vRegressed
	case -row.WorsePct > noise:
		row.Verdict = vImproved
	default:
		row.Verdict = vWithin
	}
	return row
}

// diffRuns judges every end-to-end metric on every workload both sets
// ran, and fail_ratio, which may not increase at all.
func diffRuns(spec *benchSpec, old, new []*Result) (rows []diffRow, failUp []string) {
	group := func(runs []*Result) (map[string][]*Result, []string) {
		by := map[string][]*Result{}
		var order []string
		for _, r := range runs {
			if _, ok := by[r.Workload]; !ok {
				order = append(order, r.Workload)
			}
			by[r.Workload] = append(by[r.Workload], r)
		}
		return by, order
	}
	values := func(runs []*Result, name string) []float64 {
		var out []float64
		for _, r := range runs {
			if m, ok := r.EndToEnd[name]; ok {
				out = append(out, m.Value)
			}
		}
		return out
	}
	failRatio := func(runs []*Result) float64 {
		var failed, attempted uint64
		for _, r := range runs {
			failed += r.Failed
			attempted += r.Attempted
		}
		if attempted == 0 {
			return 1
		}
		return float64(failed) / float64(attempted)
	}
	oldBy, order := group(old)
	newBy, _ := group(new)
	for _, wl := range order {
		if len(newBy[wl]) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			o, n := values(oldBy[wl], m.Name), values(newBy[wl], m.Name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			rows = append(rows, judge(m, wl, o, n))
		}
		if fo, fn := failRatio(oldBy[wl]), failRatio(newBy[wl]); fn > fo {
			failUp = append(failUp, fmt.Sprintf("%s: fail_ratio %.6f -> %.6f", wl, fo, fn))
		}
	}
	return rows, failUp
}

// diffMain prints one row per (workload, metric) and exits non-zero on a
// regressed row or a fail_ratio increase.
func diffMain(specPath string, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -diff old.json[,old2.json...] new.json[,new2.json...]")
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	old, err := loadRuns(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	new, err := loadRuns(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	rows, failUp := diffRuns(spec, old, new)
	fmt.Printf("%-12s %-18s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "old median", "new median", "worse", "spread", "bound", "verdict")
	bad := 0
	for _, r := range rows {
		fmt.Printf("%-12s %-18s %14.4f %14.4f %+8.2f%% %7.2f%% %6.1f%%  %s\n",
			r.Workload, r.Metric, r.Old, r.New, r.WorsePct, r.SpreadPct, r.BoundPct, r.Verdict)
		if r.Verdict == vRegressed {
			bad++
		}
	}
	for _, f := range failUp {
		fmt.Printf("REGRESSED  %s\n", f)
		bad++
	}
	if bad > 0 {
		fmt.Printf("%d regression(s)\n", bad)
		return 1
	}
	return 0
}
