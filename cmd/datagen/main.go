// Command datagen generates synthetic geospatial datasets (UK/US-like
// geo-tagged tweets, SG-like POIs) and writes them as CSV or JSON lines.
//
// Usage:
//
//	datagen -preset uk -n 100000 -seed 1 -format csv -o uk.csv
//
// With -churn M it instead emits a timestamped mutation trace of M
// insert/update/delete operations over the (regenerated, not written)
// base dataset, as JSON Lines — the workload the live server's /ingest
// endpoint replays:
//
//	datagen -preset poi -n 100000 -churn 10000 -churn-rate 5000 -o trace.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"geosel/internal/dataset"
	"geosel/internal/geodata"
	"geosel/internal/livestore"
)

func main() {
	var (
		preset    = flag.String("preset", "uk", "dataset preset: uk, us or poi")
		n         = flag.Int("n", 100000, "number of objects")
		seed      = flag.Int64("seed", 1, "generator seed")
		format    = flag.String("format", "csv", "output format: csv, jsonl or binary")
		out       = flag.String("o", "", "output file (default stdout)")
		churn     = flag.Int("churn", 0, "emit a mutation trace of this many operations over the base dataset instead of the dataset itself")
		churnRate = flag.Float64("churn-rate", 1000, "trace timestamp spacing in mutations per second")
		churnMixI = flag.Float64("churn-inserts", 3, "relative weight of inserts in the churn mix")
		churnMixU = flag.Float64("churn-updates", 4, "relative weight of updates in the churn mix")
		churnMixD = flag.Float64("churn-deletes", 3, "relative weight of deletes in the churn mix")
	)
	flag.Parse()
	spec := dataset.ChurnSpec{
		Mutations:    *churn,
		RatePerSec:   *churnRate,
		InsertWeight: *churnMixI,
		UpdateWeight: *churnMixU,
		DeleteWeight: *churnMixD,
		Seed:         *seed + 1, // decorrelated from the base generator
	}
	if err := run(*preset, *n, *seed, *format, *out, spec); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(preset string, n int, seed int64, format, out string, churn dataset.ChurnSpec) error {
	col, err := dataset.Load("", preset, n, seed)
	if err != nil {
		return err
	}
	emit := func(w io.Writer) error { return write(w, col, format) }
	if churn.Mutations > 0 {
		trace, err := dataset.GenerateChurn(col, churn)
		if err != nil {
			return err
		}
		emit = func(w io.Writer) error { return livestore.WriteTrace(w, trace) }
	}
	if out == "" {
		return emit(os.Stdout)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
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
