package geodata

import (
	"encoding/json"
	"math"
	"strconv"
)

// The JSON wire form of a selected object,
//
//	{"id":…,"x":…,"y":…,"weight":…,"text":…}
//
// with text left out when empty, is rendered here and nowhere else: the
// server's selection responses and the tile cache's per-entry fragments
// are both made of AppendObjectJSON's bytes. Those bytes are exactly
// what encoding/json writes for the equivalent struct (key order,
// omitempty, float and string rules), so a response does not depend on
// which of the two produced it — json_test.go holds the renderer to
// that, byte for byte.

// AppendObjectJSON appends o's wire form to dst. o's location and
// weight must be finite, which every Store validates at load and every
// live store at ingest.
//
//geolint:hotpath
func AppendObjectJSON(dst []byte, o *Object) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(o.ID), 10)
	dst = append(dst, `,"x":`...)
	dst = AppendJSONFloat(dst, o.Loc.X)
	dst = append(dst, `,"y":`...)
	dst = AppendJSONFloat(dst, o.Loc.Y)
	dst = append(dst, `,"weight":`...)
	dst = AppendJSONFloat(dst, o.Weight)
	if o.Text != "" {
		dst = append(dst, `,"text":`...)
		dst = appendJSONString(dst, o.Text)
	}
	return append(dst, '}')
}

// AppendObjectsJSON appends the JSON array of the objects at the given
// collection positions, in that order.
//
//geolint:hotpath
func AppendObjectsJSON(dst []byte, objs []Object, positions []int) []byte {
	dst = append(dst, '[')
	for i, p := range positions {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendObjectJSON(dst, &objs[p])
	}
	return append(dst, ']')
}

// AppendJSONFloat appends a finite f the way encoding/json does: the
// shortest decimal that round-trips, in exponent form only below 1e-6
// or from 1e21 up, and then with a one-digit exponent where one digit
// is enough (1e-07 → 1e-7).
//
//geolint:hotpath
func AppendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendJSONString appends s as a JSON string. Printable ASCII that
// encoding/json leaves alone is copied as is; a text holding anything
// else — a quote, a backslash, a control byte, the HTML-sensitive
// < > &, any non-ASCII byte — takes encoding/json's own escaper.
//
//geolint:hotpath
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < 0x20 || b >= 0x80 || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&' {
			return appendEscapedJSONString(dst, s)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

func appendEscapedJSONString(dst []byte, s string) []byte {
	quoted, err := json.Marshal(s)
	if err != nil {
		// encoding/json replaces invalid UTF-8 rather than refuse it; no
		// string makes Marshal fail.
		panic("geodata: json.Marshal of a string failed: " + err.Error()) //geolint:allowpanic
	}
	return append(dst, quoted...)
}
