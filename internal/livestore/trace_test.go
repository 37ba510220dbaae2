package livestore

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadTrace feeds arbitrary bytes to the trace decoder: it must
// never panic, and whatever it accepts is a valid trace, so writing it
// and reading it back must give the same trace.
func FuzzReadTrace(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"seq":0,"at_ms":0,"op":"insert","id":1,"x":0.25,"y":0.75,"weight":0.5,"text":"a b"}` + "\n" +
		`{"seq":1,"at_ms":3,"op":"update","id":1,"x":0.5,"y":0.5,"weight":0.25}` + "\n\n" +
		`{"seq":2,"at_ms":9,"op":"delete","id":1}` + "\n"))
	f.Add([]byte(`{"op":"noop","id":1}` + "\n"))
	f.Add([]byte(`{"op":"insert","id":-7,"x":-0,"y":1e-300,"text":"é� "}` + "\r\n" + `  ` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		trace, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, trace); err != nil {
			t.Fatalf("WriteTrace of a trace ReadTrace accepted: %v", err)
		}
		again, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("ReadTrace of WriteTrace output: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(again, trace) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", again, trace)
		}
	})
}
