// Command ftmr-bench regenerates the paper's evaluation figures.
//
// Usage:
//
//	ftmr-bench -fig fig5        # one figure
//	ftmr-bench -all             # every figure, in paper order
//	ftmr-bench -list            # list figure ids
//	ftmr-bench -all -json BENCH_results.json
//	                            # also write the machine-readable document
//
// -quick trims the sweeps for fast runs (strong scaling stops at 256 ranks).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ftmrmpi/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it returns the exit status (0 clean, 1 the JSON
// document could not be written, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ftmr-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "", "figure id to run (fig3..fig16)")
	all := fs.Bool("all", false, "run every figure")
	list := fs.Bool("list", false, "list available figures")
	quick := fs.Bool("quick", false, "trim sweeps: smaller inputs, strong scaling up to 256 ranks")
	jsonOut := fs.String("json", "", "also write the tables as a stable-schema JSON document to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag package has already printed the reason
	}

	scale := bench.Scale{MaxProcs: 2048}
	if *quick {
		scale = bench.Scale{Quick: true, MaxProcs: 256}
	}

	var tables []*bench.Table
	switch {
	case *list:
		for _, f := range bench.Figures() {
			fmt.Fprintf(stdout, "%-7s %s\n", f.ID, f.Brief)
		}
	case *all:
		for _, f := range bench.Figures() {
			start := time.Now()
			t := f.Run(scale)
			t.Fprint(stdout)
			tables = append(tables, t)
			fmt.Fprintf(stderr, "[%s done in %v]\n", f.ID, time.Since(start).Round(time.Millisecond))
		}
	case *fig != "":
		f, err := bench.Lookup(*fig)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		t := f.Run(scale)
		t.Fprint(stdout)
		tables = append(tables, t)
	default:
		fs.Usage()
		return 2
	}

	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, tables); err != nil {
			fmt.Fprintf(stderr, "write json: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "json results written to %s\n", *jsonOut)
	}
	return 0
}

func writeJSON(path string, tables []*bench.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.WriteJSON(f, tables); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
