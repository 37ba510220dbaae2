package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"geosel/internal/dataset"
)

func TestRunCSV(t *testing.T) {
	out := filepath.Join(t.TempDir(), "d.csv")
	if err := run("poi", 200, 1, "csv", out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	col, err := dataset.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != 200 {
		t.Errorf("len = %d", col.Len())
	}
}

func TestRunJSONL(t *testing.T) {
	out := filepath.Join(t.TempDir(), "d.jsonl")
	if err := run("uk", 100, 2, "jsonl", out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	col, err := dataset.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != 100 {
		t.Errorf("len = %d", col.Len())
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("mars", 10, 1, "csv", ""); err == nil || !strings.Contains(err.Error(), "preset") {
		t.Errorf("bad preset: %v", err)
	}
	if err := run("us", 10, 1, "xml", filepath.Join(t.TempDir(), "x")); err == nil || !strings.Contains(err.Error(), "format") {
		t.Errorf("bad format: %v", err)
	}
	if err := run("us", 10, 1, "csv", "/nonexistent-dir/file.csv"); err == nil {
		t.Error("unwritable path should fail")
	}
}
