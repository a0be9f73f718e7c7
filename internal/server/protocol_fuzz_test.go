package server_test

import (
	"bytes"
	"io"
	"net"
	"testing"

	"lepton/internal/server"
)

// frameSink is a write-only net.Conn over a buffer, so WriteFrame can
// re-encode what ReadRequest decoded.
type frameSink struct {
	net.Conn
	buf bytes.Buffer
}

func (s *frameSink) Write(p []byte) (int, error) { return s.buf.Write(p) }

// FuzzReadRequest reads request frames from arbitrary bytes until the
// stream runs out or is rejected: it must never panic, and every frame it
// accepts must re-encode to exactly the bytes it consumed.
func FuzzReadRequest(f *testing.F) {
	f.Add([]byte{server.OpCompress, 3, 0, 0, 0, 'a', 'b', 'c', server.OpLoad, 0, 0, 0, 0})
	f.Add([]byte{server.OpDecompress, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{server.OpCompress, 9, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var sink frameSink
		for {
			before := len(data) - r.Len()
			op, payload, err := server.ReadRequest(r)
			if err != nil {
				if err == io.EOF && before != len(data) {
					t.Fatalf("io.EOF with %d bytes unread", len(data)-before)
				}
				return
			}
			sink.buf.Reset()
			if err := server.WriteFrame(&sink, op, payload); err != nil {
				t.Fatal(err)
			}
			if consumed := data[before : len(data)-r.Len()]; !bytes.Equal(sink.buf.Bytes(), consumed) {
				t.Fatalf("frame re-encodes differently:\nin  %x\nout %x", consumed, sink.buf.Bytes())
			}
		}
	})
}
