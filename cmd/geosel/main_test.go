package main

import (
	"os"
	"path/filepath"
	"testing"

	"geosel/internal/dataset"
)

// silence routes the command's stdout to /dev/null for the duration of
// a test so `go test` output stays readable.
func silence(t *testing.T) {
	t.Helper()
	old := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	t.Cleanup(func() {
		os.Stdout = old
		null.Close()
	})
}

func TestRunGenerated(t *testing.T) {
	silence(t)
	if err := run("", "poi", 2000, 1, 0.5, 0.5, 0.2, 5, 0.003, false, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunSampled(t *testing.T) {
	silence(t)
	if err := run("", "uk", 3000, 2, 0.5, 0.5, 0.3, 5, 0.003, true, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunFromCSV(t *testing.T) {
	silence(t)
	path := filepath.Join(t.TempDir(), "d.csv")
	col, err := dataset.Generate(dataset.POISpec(500, 3))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(f, col); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := run(path, "", 0, 4, 0.5, 0.5, 0.4, 3, 0.003, false, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("", "atlantis", 100, 1, 0.5, 0.5, 0.1, 3, 0.003, false, false); err == nil {
		t.Error("unknown preset should fail")
	}
	if err := run("/no/such/file.csv", "", 0, 1, 0.5, 0.5, 0.1, 3, 0.003, false, false); err == nil {
		t.Error("missing file should fail")
	}
}
