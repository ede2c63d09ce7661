package main

import (
	"os"
	"path/filepath"
	"testing"
)

var testSpec = &benchSpec{EndToEnd: []metricSpec{
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
}}

// runsOf makes one Result per (p50, rate) pair.
func runsOf(wl string, failed uint64, pairs ...[2]float64) []*Result {
	var out []*Result
	for _, p := range pairs {
		out = append(out, &Result{Workload: wl, Attempted: 1000, Failed: failed, EndToEnd: map[string]Metric{
			"op_p50_us": {p[0], "us"}, "ops_per_s": {p[1], "1/s"}}})
	}
	return out
}

func verdicts(rows []diffRow) map[string]string {
	out := map[string]string{}
	for _, r := range rows {
		out[r.Workload+"/"+r.Metric] = r.Verdict
	}
	return out
}

func TestDiffVerdicts(t *testing.T) {
	old := append(runsOf("steady", 0, [2]float64{100, 1000}, [2]float64{101, 1010}, [2]float64{99, 990}),
		runsOf("noisy", 0, [2]float64{100, 1000}, [2]float64{140, 700}, [2]float64{70, 1400})...)
	cases := []struct {
		name      string
		new       []*Result
		want      map[string]string
		failUp    int
		regressed bool
	}{
		{"within", runsOf("steady", 0, [2]float64{104, 980}, [2]float64{103, 985}, [2]float64{105, 975}),
			map[string]string{"steady/op_p50_us": vWithin, "steady/ops_per_s": vWithin}, 0, false},
		{"regressed latency, lower is better", runsOf("steady", 0, [2]float64{120, 1000}, [2]float64{121, 1005}, [2]float64{119, 995}),
			map[string]string{"steady/op_p50_us": vRegressed, "steady/ops_per_s": vWithin}, 0, true},
		{"regressed rate, higher is better", runsOf("steady", 0, [2]float64{100, 850}, [2]float64{101, 860}, [2]float64{99, 840}),
			map[string]string{"steady/op_p50_us": vWithin, "steady/ops_per_s": vRegressed}, 0, true},
		{"improved", runsOf("steady", 0, [2]float64{80, 1250}, [2]float64{81, 1240}, [2]float64{79, 1260}),
			map[string]string{"steady/op_p50_us": vImproved, "steady/ops_per_s": vImproved}, 0, false},
		{"spread wider than bound", runsOf("noisy", 0, [2]float64{130, 800}, [2]float64{90, 1100}, [2]float64{150, 650}),
			map[string]string{"noisy/op_p50_us": vUnresolved, "noisy/ops_per_s": vUnresolved}, 0, false},
		{"wide spread but every run better", runsOf("noisy", 0, [2]float64{60, 1500}, [2]float64{40, 2500}, [2]float64{50, 2000}),
			map[string]string{"noisy/op_p50_us": vImproved, "noisy/ops_per_s": vImproved}, 0, false},
		{"fail ratio up", runsOf("steady", 1, [2]float64{100, 1000}),
			map[string]string{"steady/op_p50_us": vWithin, "steady/ops_per_s": vWithin}, 1, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rows, failUp := diffRuns(testSpec, old, c.new)
			got := verdicts(rows)
			for k, v := range c.want {
				if got[k] != v {
					t.Errorf("%s: %s, want %s (rows %+v)", k, got[k], v, rows)
				}
			}
			if len(failUp) != c.failUp {
				t.Errorf("fail_ratio increases: %v, want %d", failUp, c.failUp)
			}
		})
	}
}

// TestDiffExitStatus drives -diff and -summary through the command line
// on files, with bounds read from a contract file.
func TestDiffExitStatus(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, v); err != nil {
			t.Fatal(err)
		}
		return p
	}
	spec := write("spec.json", testSpec)
	old := write("old.json", &resultsFile{Schema: schema, Runs: runsOf("steady", 0, [2]float64{100, 1000})})
	same := write("same.json", &resultsFile{Schema: schema, Runs: runsOf("steady", 0, [2]float64{103, 990})})
	slow := write("slow.json", &resultsFile{Schema: schema, Runs: runsOf("steady", 0, [2]float64{125, 1000})})
	flaky := write("flaky.json", &resultsFile{Schema: schema, Runs: runsOf("steady", 3, [2]float64{100, 1000})})

	for _, c := range []struct {
		new  string
		want int
	}{{same, 0}, {slow, 1}, {flaky, 1}, {slow + "," + slow, 1}} {
		if got := run([]string{"-spec", spec, "-diff", old, c.new}); got != c.want {
			t.Errorf("-diff old %s: exit %d, want %d", filepath.Base(c.new), got, c.want)
		}
	}
	if got := run([]string{"-spec", spec, "-diff", old}); got != 2 {
		t.Errorf("-diff with one file: exit %d, want 2", got)
	}

	merged := filepath.Join(dir, "merged.json")
	if got := run([]string{"-summary", "-out", merged, old, same, slow}); got != 0 {
		t.Fatalf("-summary: exit %d", got)
	}
	runs, err := loadRuns(merged)
	if err != nil || len(runs) != 3 {
		t.Fatalf("merged file: %d runs, %v", len(runs), err)
	}
	if _, err := os.Stat(merged); err != nil {
		t.Fatal(err)
	}
}
