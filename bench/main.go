//go:debug randseednop=0

// Command bench is confio's benchmark: five named workloads over the
// public entry points, every byte verified, a fixed set of end-to-end
// metrics with regression bounds (BENCHMARK.json), and under -trace a
// per-layer account measured from outside through the seams the code
// already has. See README.md in this directory.
//
//	go run ./bench                      # all workloads, default windows
//	go run ./bench -trace               # plus the per-layer tables
//	go run ./bench -workload ring-frame -seed 7 -seconds 10 -trace 0
//	go run ./bench -diff old.json new.json
//
// The go:debug line above pins math/rand.Seed to its seeding behaviour:
// go.mod says go 1.22 today, and a toolchain bump must not silently
// un-seed the worlds (tcp draws ports and ISNs from the global source).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// resultsFile is what -out writes and -diff reads.
type resultsFile struct {
	Schema string    `json:"schema"`
	Go     string    `json:"go"`
	CPUs   int       `json:"cpus"`
	Trace  bool      `json:"trace"`
	Smoke  bool      `json:"smoke"`
	Runs   []*Result `json:"runs"`
	// Summary is filled by -summary: medians and quartiles over Runs.
	Summary []summaryRow `json:"summary,omitempty"`
}

const schema = "confbench/1"

func main() { os.Exit(run(os.Args[1:])) }

// run is main without the exit, so tests can drive the command line.
func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "run one workload (default: all five) and end with the driver's JSON line")
		seed     = fs.Int64("seed", 1, "seed for payloads, offsets and the worlds' ports")
		seconds  = fs.Int("seconds", 0, "timed window in seconds (default: 15 s network, 10 s ring and file)")
		trace    = fs.Bool("trace", false, "add the per-layer runs: idle window, probe-stack traces, micro-drives")
		traceOut = fs.String("trace-out", "", "write the recorded spans to this file (JSON lines)")
		smoke    = fs.Bool("smoke", false, "count-bounded sub-second workloads, verification on, no bounds")
		out      = fs.String("out", "", "write the results JSON here (default bench_results.json for a full run)")
		diff     = fs.Bool("diff", false, "compare two results files (or comma-separated lists): -diff old.json new.json")
		summary  = fs.Bool("summary", false, "merge results files into one with medians and quartiles: -summary a.json b.json ... -out merged.json")
		spec     = fs.String("spec", "BENCHMARK.json", "benchmark contract holding the bounds and directions")
	)
	if err := fs.Parse(joinBoolValue(args, "trace")); err != nil {
		return 2
	}
	switch {
	case *diff:
		return diffMain(*spec, fs.Args())
	case *summary:
		return summaryMain(fs.Args(), *out)
	}

	todo := workloads
	if *name != "" {
		wl := findWorkload(*name)
		if wl == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		todo = []*workloadDef{wl}
	} else if *out == "" {
		*out = "bench_results.json"
	}

	file := &resultsFile{Schema: schema, Go: runtime.Version(), CPUs: runtime.NumCPU(), Trace: *trace, Smoke: *smoke}
	var spans *spanLog
	if *traceOut != "" {
		spans = &spanLog{}
	}
	ok := true
	for _, wl := range todo {
		opt := runOptions{seed: *seed, window: time.Duration(*seconds) * time.Second, smoke: *smoke,
			idle: !*smoke && (*trace || *name == "")}
		res := runWorkload(wl, opt)
		if *trace && res.Correct {
			traceWorkload(wl, opt, res, spans)
		}
		printResult(os.Stdout, res, *trace)
		file.Runs = append(file.Runs, res)
		ok = ok && res.Correct
	}
	if *out != "" {
		if err := writeJSON(*out, file); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if spans != nil {
		if err := spans.writeFile(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if *name != "" {
		printDriverLine(os.Stdout, file.Runs[0], *trace)
	}
	if !ok {
		return 1
	}
	return 0
}

// joinBoolValue rewrites "-name 0|1" into "-name=0|1": the flag package
// reads a boolean flag's value only after '=', and the driver passes
// "--trace 0".
func joinBoolValue(args []string, name string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printDriverLine ends the output with the one JSON object the driver
// reads: every end-to-end metric untraced, every per-layer metric traced
// (a per-layer metric that does not apply to the workload reads 0).
func printDriverLine(w *os.File, res *Result, trace bool) {
	metrics := map[string]Metric{}
	if trace {
		for _, m := range perLayerSpec {
			v, ok := res.PerLayer[m.Name]
			if !ok {
				v = Metric{0, m.Unit}
			}
			metrics[m.Name] = v
		}
	} else {
		for _, m := range endToEndSpec {
			metrics[m.Name] = res.EndToEnd[m.Name]
		}
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, metrics}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return
	}
	fmt.Fprintln(w, string(b))
}

// printResult prints one workload's metrics by name, with units and the
// sample count.
func printResult(w *os.File, res *Result, trace bool) {
	fmt.Fprintf(w, "== %s  seed=%d window=%.2fs ops=%d failed=%d fail_ratio=%.6f samples=%d\n",
		res.Workload, res.Seed, res.WindowS, res.Attempted, res.Failed, res.failRatio(), res.Samples)
	if res.Error != "" {
		fmt.Fprintf(w, "   ERROR: %s\n", res.Error)
	}
	for _, m := range endToEndSpec {
		if v, ok := res.EndToEnd[m.Name]; ok {
			fmt.Fprintf(w, "   %-34s %14.4f %s\n", m.Name, v.Value, v.Unit)
		}
	}
	for _, m := range perLayerSpec {
		v, ok := res.PerLayer[m.Name]
		if ok && (trace || alwaysShown(m.Name)) {
			fmt.Fprintf(w, "   %-34s %14.4f %s\n", m.Name, v.Value, v.Unit)
		}
	}
}

// alwaysShown picks the per-layer figures an untraced run prints too:
// the workload's own readings, and the two that stop "spin more" and
// "allocate more" from reading as free wins.
func alwaysShown(name string) bool {
	switch name {
	case "process.allocs_per_op", "process.idle_cpu_pct", "sfs.read_p50_us", "sfs.write_p50_us":
		return true
	}
	return strings.HasPrefix(name, "workload.")
}
