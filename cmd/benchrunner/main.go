// Command benchrunner regenerates the paper's tables and figures on the
// synthetic datasets and prints each as an aligned text table (or CSV).
//
// Usage:
//
//	benchrunner -list
//	benchrunner -exp fig7
//	benchrunner -exp all -uk 100000 -us 400000 -poi 30000 -queries 3
//	benchrunner -exp fig13 [-cpuprofile cpu.out] [-memprofile mem.out]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"geosel/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "", "exhibit id (table3, table4, fig7..fig14, fig18..fig23) or 'all'")
		list    = flag.Bool("list", false, "list exhibit ids and exit")
		ukSize  = flag.Int("uk", 0, "UK-like dataset size (0 = default)")
		usSize  = flag.Int("us", 0, "US-like dataset size (0 = default)")
		poiSize = flag.Int("poi", 0, "POI-like dataset size (0 = default)")
		queries = flag.Int("queries", 0, "repetitions per measurement (0 = default)")
		seed    = flag.Int64("seed", 1, "environment seed")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned text")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: -cpuprofile: %v\n", err)
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: -memprofile: %v\n", err)
				return
			}
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: -memprofile: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: -memprofile: %v\n", err)
			}
		}()
	}

	if *list {
		for _, id := range experiments.ExhibitIDs() {
			about, _ := experiments.Describe(id)
			fmt.Printf("%-8s %s\n", id, about)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "benchrunner: -exp or -list required (try -list)")
		os.Exit(2)
	}

	cfg := experiments.DefaultConfig()
	cfg.Seed = *seed
	if *ukSize > 0 {
		cfg.UKSize = *ukSize
	}
	if *usSize > 0 {
		cfg.USSize = *usSize
	}
	if *poiSize > 0 {
		cfg.POISize = *poiSize
	}
	if *queries > 0 {
		cfg.Queries = *queries
	}
	env := experiments.NewEnv(cfg)

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.ExhibitIDs()
	}
	for _, id := range ids {
		start := time.Now()
		table, err := env.Run(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %s: %v\n", id, err)
			os.Exit(1)
		}
		if *csv {
			table.CSV(os.Stdout)
		} else {
			table.Fprint(os.Stdout)
		}
		fmt.Fprintf(os.Stderr, "[%s regenerated in %v]\n", id, time.Since(start).Round(time.Millisecond))
	}
}
