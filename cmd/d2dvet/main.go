// Command d2dvet runs the project's static-analysis suite over Go package
// patterns and reports invariant violations the compiler cannot see:
// wall-clock reads in simulation-clocked packages, unseeded global
// randomness, blocking calls under a held mutex, dropped network-layer
// errors, map iteration feeding ordered sinks, shutdown-less goroutines in
// stoppable types, sync/atomic's pointer API, and leaked tickers/timers.
//
// Usage:
//
//	d2dvet [-list] [-json|-github] [-sarif file] [-unused-allows] [packages]
//
// Patterns default to ./... . Exit status is 0 when clean, 1 when any
// finding survives suppression, 2 on a driver error.
package main

import (
	"flag"
	"fmt"
	"os"

	"d2dhb/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and their invariants, then exit")
	jsonOut := flag.Bool("json", false, "print findings as a JSON array instead of text")
	github := flag.Bool("github", false, "print findings as GitHub ::error workflow annotations")
	sarifPath := flag.String("sarif", "", "also write findings as SARIF 2.1.0 to this `file`")
	unusedAllows := flag.Bool("unused-allows", false, "report stale //lint:allow directives that no longer suppress anything")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: d2dvet [-list] [-json|-github] [-sarif file] [-unused-allows] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the project static-analysis suite (default pattern ./...).\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers {
			fmt.Printf("%-11s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *jsonOut && *github {
		fatal(fmt.Errorf("-json and -github are mutually exclusive"))
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(wd)
	if err != nil {
		fatal(err)
	}
	cfg := lint.DefaultConfig(loader.ModulePath)
	cfg.ReportUnusedAllows = *unusedAllows
	findings, err := loader.Run(cfg, patterns)
	if err != nil {
		fatal(err)
	}

	if *sarifPath != "" {
		f, err := os.Create(*sarifPath)
		if err != nil {
			fatal(err)
		}
		if err := lint.EncodeSARIF(f, findings); err != nil {
			_ = f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	switch {
	case *jsonOut:
		if err := lint.EncodeJSON(os.Stdout, findings); err != nil {
			fatal(err)
		}
	case *github:
		lint.EncodeGitHub(os.Stdout, findings)
	default:
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "d2dvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "d2dvet:", err)
	os.Exit(2)
}
