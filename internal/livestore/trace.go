package livestore

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"geosel/internal/geo"
)

// TimedMutation is one entry of a churn trace: a mutation plus its
// position and offset on the trace's timeline. Traces are what
// cmd/datagen -churn emits and what the churn tests replay.
type TimedMutation struct {
	// Seq is the 0-based position in the trace.
	Seq int
	// AtMs is the emission offset in milliseconds from the trace start;
	// replayers are free to ignore it and replay as fast as possible.
	AtMs int64
	Mutation
}

// traceLine is the JSONL wire form of a TimedMutation: one object per
// line, the op spelled by name so traces are greppable and stable
// across refactors of the Op constants.
type traceLine struct {
	Seq    int     `json:"seq"`
	AtMs   int64   `json:"at_ms"`
	Op     string  `json:"op"`
	ID     int     `json:"id"`
	X      float64 `json:"x,omitempty"`
	Y      float64 `json:"y,omitempty"`
	Weight float64 `json:"weight,omitempty"`
	Text   string  `json:"text,omitempty"`
}

// WriteTrace writes the mutations as JSON Lines, one TimedMutation per
// line.
func WriteTrace(w io.Writer, trace []TimedMutation) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, tm := range trace {
		if err := enc.Encode(traceLine{
			Seq:    tm.Seq,
			AtMs:   tm.AtMs,
			Op:     tm.Op.String(),
			ID:     tm.ID,
			X:      tm.Loc.X,
			Y:      tm.Loc.Y,
			Weight: tm.Weight,
			Text:   tm.Text,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a JSONL churn trace written by WriteTrace (or by
// cmd/datagen -churn). Blank lines are skipped; an unknown op or
// malformed line is an error naming the line number.
func ReadTrace(r io.Reader) ([]TimedMutation, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []TimedMutation
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var tl traceLine
		if err := json.Unmarshal(line, &tl); err != nil {
			return nil, fmt.Errorf("livestore: trace line %d: %w", lineNo, err)
		}
		op, err := ParseOp(tl.Op)
		if err != nil {
			return nil, fmt.Errorf("livestore: trace line %d: %w", lineNo, err)
		}
		out = append(out, TimedMutation{
			Seq:  tl.Seq,
			AtMs: tl.AtMs,
			Mutation: Mutation{
				Op:     op,
				ID:     tl.ID,
				Loc:    geo.Pt(tl.X, tl.Y),
				Weight: tl.Weight,
				Text:   tl.Text,
			},
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("livestore: reading trace: %w", err)
	}
	return out, nil
}
