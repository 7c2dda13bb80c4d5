// Command ftmr-perf is the repository's performance benchmark; see
// ../../README.md.
package main

import (
	"os"

	benchmark "ftmrmpi/benchmark"
)

func main() { os.Exit(benchmark.Main(os.Args[1:], os.Stdout, os.Stderr)) }
