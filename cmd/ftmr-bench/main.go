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
	"flag"
	"fmt"
	"os"
	"time"

	"ftmrmpi/internal/bench"
)

func main() {
	fig := flag.String("fig", "", "figure id to run (fig3..fig16)")
	all := flag.Bool("all", false, "run every figure")
	list := flag.Bool("list", false, "list available figures")
	quick := flag.Bool("quick", false, "trim sweeps: smaller inputs, strong scaling up to 256 ranks")
	jsonOut := flag.String("json", "", "also write the tables as a stable-schema JSON document to this file")
	flag.Parse()

	scale := bench.Scale{MaxProcs: 2048}
	if *quick {
		scale = bench.Scale{Quick: true, MaxProcs: 256}
	}

	var tables []*bench.Table
	switch {
	case *list:
		for _, f := range bench.Figures() {
			fmt.Printf("%-7s %s\n", f.ID, f.Brief)
		}
	case *all:
		for _, f := range bench.Figures() {
			start := time.Now()
			t := f.Run(scale)
			t.Fprint(os.Stdout)
			tables = append(tables, t)
			fmt.Fprintf(os.Stderr, "[%s done in %v]\n", f.ID, time.Since(start).Round(time.Millisecond))
		}
	case *fig != "":
		f, err := bench.Lookup(*fig)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		t := f.Run(scale)
		t.Fprint(os.Stdout)
		tables = append(tables, t)
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "write json: %v\n", err)
			os.Exit(1)
		}
		if err := bench.WriteJSON(f, tables); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "write json: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "write json: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "json results written to %s\n", *jsonOut)
	}
}
