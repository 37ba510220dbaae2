// Command datagen generates synthetic geospatial datasets (UK/US-like
// geo-tagged tweets, SG-like POIs) and writes them as CSV, JSON lines or
// a binary snapshot.
//
// Usage:
//
//	datagen -preset uk -n 100000 -seed 1 -format csv -o uk.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"geosel/internal/dataset"
	"geosel/internal/geodata"
)

func main() {
	var (
		preset = flag.String("preset", "uk", "dataset preset: uk, us or poi")
		n      = flag.Int("n", 100000, "number of objects")
		seed   = flag.Int64("seed", 1, "generator seed")
		format = flag.String("format", "csv", "output format: csv, jsonl or binary")
		out    = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()
	if err := run(*preset, *n, *seed, *format, *out); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(preset string, n int, seed int64, format, out string) error {
	col, err := dataset.Load("", preset, n, seed)
	if err != nil {
		return err
	}
	if out == "" {
		return write(os.Stdout, col, format)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := write(f, col, format); err != nil {
		f.Close() //geolint:errok
		return err
	}
	// Close errors are the write's final status: a buffered flush can
	// still fail here (e.g. full disk) after every Write succeeded.
	return f.Close()
}

func write(w io.Writer, col *geodata.Collection, format string) error {
	switch format {
	case "csv":
		return dataset.WriteCSV(w, col)
	case "jsonl":
		return dataset.WriteJSONL(w, col)
	case "binary":
		return dataset.WriteBinary(w, col)
	default:
		return fmt.Errorf("unknown format %q (want csv, jsonl or binary)", format)
	}
}
