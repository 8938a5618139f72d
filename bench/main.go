// Command bench is the repository's benchmark: five workloads over the
// simulator's two city kernels and the live TCP stack, measured end to end
// and, in a separate traced pass, layer by layer. See README.md.
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bench -workload all -seed 1 [-trace 1] -out <file>
//	bench -summarize <file> <file> [...]
//
// One workload runs per process, so peak RSS and the CPU clock belong to
// it alone; "all" re-executes this binary once per workload. The last line
// of standard output is one JSON object: correct, attempted, failed and
// the metrics (end-to-end with --trace 0, per-layer with --trace 1).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload name, or \"all\"")
		seed      = flag.Int64("seed", 1, "workload seed: equal seeds generate equal inputs")
		seconds   = flag.Float64("seconds", 10, "how long each workload measures")
		traced    = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
		out       = flag.String("out", "", "with -workload all: write every workload's results to this JSON file")
		summarize = flag.Bool("summarize", false, "compare result files written by -out (arguments) against the bounds in ./BENCHMARK.json")
	)
	flag.Parse()
	if err := validateDefs(endToEnd, perLayer); err != nil {
		fatal(err)
	}
	var err error
	switch {
	case *summarize:
		err = runSummarize(os.Stdout, "BENCHMARK.json", flag.Args())
	case *workload == "all":
		err = runAll(*seed, *seconds, *traced != 0, *out)
	default:
		w, ok := findWorkload(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		err = runOne(os.Stdout, w, *seed, *seconds, *traced != 0)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runOne measures one workload in this process and prints its result.
func runOne(w io.Writer, wl workloadDef, seed int64, seconds float64, traced bool) error {
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", wl.Name, seed, seconds, traced)
	fmt.Fprintf(w, "load: generated in-process (loadgen.Runner / the simulator) over loopback TCP, GOMAXPROCS=%d of %d CPUs, no extra generator threads\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU())
	if !traced {
		o, err := wl.run(runCtx{seed: seed, seconds: seconds})
		if err != nil {
			return err
		}
		o.e2e["peak_rss_mb"] = peakRSSMiB()
		u, s := cpuTimes()
		fmt.Fprintf(w, "process total: user %.3f s, sys %.3f s\n", u.Seconds(), s.Seconds())
		return emit(w, wl.Name, endToEnd, o.e2e, o)
	}

	// Traced: half the time untraced for the reference cost, half traced,
	// then the probes. End-to-end numbers are never taken from here.
	ref, err := wl.run(runCtx{seed: seed, seconds: seconds / 2})
	if err != nil {
		return err
	}
	spans := newSpanLog(wl.Name)
	o, err := wl.run(runCtx{seed: seed, seconds: seconds / 2, traced: true, spans: spans})
	if err != nil {
		return err
	}
	root := spans.begin("probes", -1)
	vals, err := runProbes(spans, root)
	spans.end(root)
	if err != nil {
		return err
	}
	rows := attribute(vals, o.counts)
	for k, v := range shares(rows, o.counts) {
		vals[k] = v
	}
	budget := o.stages
	if budget == nil {
		budget = &stageBudget{}
	}
	budget.metrics(vals)
	vals["trace_overhead_ratio"] = (o.cost - ref.cost) / ref.cost

	all := spans.snapshot()
	writeSpanTree(w, all)
	writeLayerTable(w, rows, o.counts)
	if o.stages != nil {
		o.stages.write(w)
	}
	for _, reason := range sortedKeys(o.counts.flushReason) {
		fmt.Fprintf(w, "sim flushes by reason %-12s %d\n", reason, o.counts.flushReason[reason])
	}
	fmt.Fprintf(w, "trace overhead: traced cost %.6g vs untraced %.6g → ratio %.4f\n", o.cost, ref.cost, vals["trace_overhead_ratio"])
	spansOut := filepath.Join(".bench_build", "spans-"+wl.Name+".json")
	if err := writeSpans(spansOut, all); err != nil {
		return err
	}
	fmt.Fprintf(w, "spans written to %s (%d spans)\n", spansOut, len(all))
	for _, c := range ref.checks {
		c.Name = "untraced:" + c.Name
		o.checks = append(o.checks, c)
	}
	return emit(w, wl.Name, perLayer, vals, o)
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// emit prints the human-readable lines, the diagnostics line and, last,
// the result object.
func emit(w io.Writer, workload string, defs []metricDef, vals map[string]float64, o *outcome) error {
	for _, n := range o.notes {
		fmt.Fprintf(w, "note %s: %s\n", workload, n)
	}
	for _, c := range o.checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "check %s %-28s %-6s %s\n", workload, c.Name, verdict, c.Detail)
	}
	metrics, err := pack(defs, vals)
	if err != nil {
		return err
	}
	for _, d := range defs {
		fmt.Fprintf(w, "metric %s %-36s %16.6f %s\n", workload, d.Name, vals[d.Name], d.Unit)
	}
	for _, d := range o.diags {
		fmt.Fprintf(w, "diagnostic %s %-28s %16.6f %-6s n=%d\n", workload, d.Name, d.Value, d.Unit, d.N)
	}
	fmt.Fprintf(w, "diagnostics %s\n", mustJSON(o.diags))
	fmt.Fprintln(w, mustJSON(result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: metrics}))
	if !o.correct() {
		return fmt.Errorf("%s: a correctness check failed", workload)
	}
	return nil
}

// allResult is one workload's entry in the -out file.
type allResult struct {
	EndToEnd    *result `json:"endToEnd"`
	PerLayer    *result `json:"perLayer,omitempty"`
	Diagnostics []diag  `json:"diagnostics"`
}

// outFile is what -workload all writes.
type outFile struct {
	Seed      int64                `json:"seed"`
	Seconds   float64              `json:"seconds"`
	Workloads map[string]allResult `json:"workloads"`
}

// runAll re-executes this binary once per workload (and once more, traced,
// when asked), echoing each child's output.
func runAll(seed int64, seconds float64, traced bool, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := outFile{Seed: seed, Seconds: seconds, Workloads: make(map[string]allResult)}
	child := func(name string, trace int) (*result, []diag, error) {
		cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		var buf bytes.Buffer
		cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		res, diags, err := parseOutput(&buf)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %v (child: %v)", name, err, runErr)
		}
		return res, diags, runErr
	}
	var failed []string
	for _, w := range workloads {
		res, diags, err := child(w.Name, 0)
		if res == nil {
			return err
		}
		if err != nil {
			failed = append(failed, w.Name)
		}
		entry := allResult{EndToEnd: res, Diagnostics: diags}
		if traced {
			if entry.PerLayer, _, err = child(w.Name, 1); entry.PerLayer == nil {
				return err
			} else if err != nil {
				failed = append(failed, w.Name+" (traced)")
			}
		}
		file.Workloads[w.Name] = entry
	}
	if out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

// parseOutput extracts the result object (last line) and the diagnostics
// line from one child's standard output.
func parseOutput(r io.Reader) (*result, []diag, error) {
	var last string
	var diags []diag
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "diagnostics "); ok {
			if err := json.Unmarshal([]byte(rest), &diags); err != nil {
				return nil, nil, fmt.Errorf("diagnostics line: %w", err)
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, nil, fmt.Errorf("no result object on the last line: %w", err)
	}
	return &res, diags, nil
}

// benchmarkDecl is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkDecl struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// runSummarize prints, per workload × end-to-end metric, the values of
// every result file, their spread (see relSpread) and the bound, and fails
// when a spread exceeds its bound.
func runSummarize(w io.Writer, declPath string, paths []string) error {
	if len(paths) < 2 {
		return fmt.Errorf("-summarize needs at least two result files")
	}
	raw, err := os.ReadFile(declPath)
	if err != nil {
		return err
	}
	var decl benchmarkDecl
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("%s: %w", declPath, err)
	}
	files := make([]outFile, len(paths))
	for i, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	fmt.Fprintf(w, "| workload | metric | unit | values (seeds")
	for _, f := range files {
		fmt.Fprintf(w, " %d", f.Seed)
	}
	fmt.Fprintf(w, ") | median | spread | bound | verdict |\n|---|---|---|---|---|---|---|---|\n")
	var over []string
	for _, wl := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			var xs []float64
			var shown []string
			for _, f := range files {
				r := f.Workloads[wl.Name].EndToEnd
				if r == nil {
					return fmt.Errorf("%s has no %s result", wl.Name, m.Name)
				}
				v := r.Metrics[m.Name].Value
				xs = append(xs, v)
				shown = append(shown, fmt.Sprintf("%.5g", v))
			}
			spread := relSpread(xs)
			verdict := "ok"
			// setup_s is exempt from the spread rule; only its median gates.
			if spread > m.Bound && m.Name != "setup_s" {
				verdict = "OVER"
				over = append(over, wl.Name+"/"+m.Name)
			}
			fmt.Fprintf(w, "| %s | %s | %s | %s | %.5g | %.2f%% | %.0f%% | %s |\n",
				wl.Name, m.Name, m.Unit, strings.Join(shown, " "), median(xs), 100*spread, 100*m.Bound, verdict)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("spread over bound: %s", strings.Join(over, ", "))
	}
	return nil
}

// relSpread is the run-to-run spread as a share of the median: the
// interquartile range (exclusive quartiles, as Python's
// statistics.quantiles(n=4)) for four or more values, the full range below
// that.
func relSpread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := median(s)
	if med == 0 {
		return 0
	}
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / med
	}
	q := func(p float64) float64 { // exclusive method: position p·(n+1), 1-based
		pos := p * float64(len(s)+1)
		lo := min(max(int(pos), 1), len(s)-1)
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return (q(0.75) - q(0.25)) / med
}
