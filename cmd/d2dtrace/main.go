// Command d2dtrace analyzes a JSONL event trace produced by
// `d2dsim -trace`: event counts, generation→delivery delay distributions
// per path (relayed vs direct), and late deliveries.
//
// Usage:
//
//	d2dsim -periods 8 -trace run.jsonl
//	d2dtrace run.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"d2dhb/internal/metrics"
	"d2dhb/internal/trace"
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: d2dtrace <trace.jsonl>")
		os.Exit(2)
	}
	if err := run(flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "d2dtrace:", err)
		os.Exit(1)
	}
}

func run(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }() // read-only: nothing buffered to lose
	events, err := trace.ReadJSONL(f)
	if err != nil {
		return err
	}
	a := trace.Analyze(events)

	counts := metrics.NewTable("Event counts", "kind", "count")
	kinds := make([]trace.Kind, 0, len(a.KindCounts))
	for k := range a.KindCounts {
		kinds = append(kinds, k)
	}
	slices.SortFunc(kinds, func(a, b trace.Kind) int { return strings.Compare(a.String(), b.String()) })
	for _, k := range kinds {
		counts.AddRow(k.String(), fmt.Sprintf("%d", a.KindCounts[k]))
	}
	fmt.Println(counts)

	delays := metrics.NewTable("Generation→delivery delay",
		"path", "n", "mean (ms)", "p50 (ms)", "p95 (ms)", "max (ms)")
	addRow := func(name string, d trace.DelayStats) {
		delays.AddRow(name, fmt.Sprintf("%d", d.Count), metrics.F(d.MeanMs),
			metrics.F(d.P50Ms), metrics.F(d.P95Ms), metrics.F(d.MaxMs))
	}
	addRow("all", a.Total)
	addRow("relayed", a.Relayed)
	addRow("direct", a.Direct)
	fmt.Println(delays)

	fmt.Printf("late deliveries: %d\n", a.LateDeliveries)
	return nil
}
