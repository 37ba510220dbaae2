package dataset

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"geosel/internal/geo"
	"geosel/internal/geodata"
)

// CSV column layout: id, x, y, weight, text.
const csvColumns = 5

// WriteCSV streams the collection to w as CSV with a header row.
func WriteCSV(w io.Writer, col *geodata.Collection) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "x", "y", "weight", "text"}); err != nil {
		return fmt.Errorf("dataset: writing CSV header: %w", err)
	}
	row := make([]string, csvColumns)
	for i := range col.Objects {
		o := &col.Objects[i]
		row[0] = strconv.Itoa(o.ID)
		row[1] = strconv.FormatFloat(o.Loc.X, 'g', -1, 64)
		row[2] = strconv.FormatFloat(o.Loc.Y, 'g', -1, 64)
		row[3] = strconv.FormatFloat(o.Weight, 'g', -1, 64)
		row[4] = o.Text
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("dataset: writing CSV row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV loads a collection from CSV produced by WriteCSV (or any file
// with the same columns). Term vectors are rebuilt against a fresh
// vocabulary.
func ReadCSV(r io.Reader) (*geodata.Collection, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = csvColumns
	cr.ReuseRecord = true // the builder copies each text out
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	if header[0] != "id" {
		return nil, fmt.Errorf("dataset: unexpected CSV header %v", header)
	}
	b := newBuilder(0)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV line %d: %w", line, err)
		}
		id, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: bad id %q", line, rec[0])
		}
		x, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: bad x %q", line, rec[1])
		}
		y, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: bad y %q", line, rec[2])
		}
		w, err := strconv.ParseFloat(rec[3], 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: bad weight %q", line, rec[3])
		}
		copy(b.add(id, geo.Pt(x, y), w, len(rec[4])), rec[4])
	}
	return b.collection(), nil
}

// jsonObject is the JSON-lines record shape.
type jsonObject struct {
	ID     int     `json:"id"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Weight float64 `json:"weight"`
	Text   string  `json:"text,omitempty"`
}

// WriteJSONL streams the collection to w as JSON lines, one object per
// line — the interchange format geo-tagged tweet dumps typically use.
func WriteJSONL(w io.Writer, col *geodata.Collection) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range col.Objects {
		o := &col.Objects[i]
		if err := enc.Encode(jsonObject{
			ID: o.ID, X: o.Loc.X, Y: o.Loc.Y, Weight: o.Weight, Text: o.Text,
		}); err != nil {
			return fmt.Errorf("dataset: encoding object %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL loads a collection from JSON lines produced by WriteJSONL.
func ReadJSONL(r io.Reader) (*geodata.Collection, error) {
	b := newBuilder(0)
	dec := json.NewDecoder(r)
	for line := 1; ; line++ {
		var jo jsonObject
		if err := dec.Decode(&jo); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("dataset: decoding JSON line %d: %w", line, err)
		}
		copy(b.add(jo.ID, geo.Pt(jo.X, jo.Y), jo.Weight, len(jo.Text)), jo.Text)
	}
	return b.collection(), nil
}
