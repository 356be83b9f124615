package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"os"
	"runtime"
	"testing"
)

// rawReply sends req over a fresh connection and returns every byte of
// the reply, up to the daemon's close.
func rawReply(t testing.TB, socket string, req Request) []byte {
	t.Helper()
	conn, err := net.Dial("unix", socket)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestDaemonRunReplyWireFormat pins the framing of a memoized run reply:
// one JSON header line without the artifact, then the stored payload
// verbatim, which is also what the cold reply carried.
func TestDaemonRunReplyWireFormat(t *testing.T) {
	d, c := testDaemon(t, nil)
	cold := mustRun(t, c, fastSpec(), false)
	raw := rawReply(t, c.Socket, Request{Op: "run", Spec: fastSpec()})
	head, body, ok := bytes.Cut(raw, []byte("\n"))
	if !ok {
		t.Fatalf("reply has no header line: %.80q", raw)
	}
	var fields map[string]any
	if err := json.Unmarshal(head, &fields); err != nil {
		t.Fatalf("header line is not JSON: %v: %.200q", err, head)
	}
	if _, ok := fields["artifact"]; ok {
		t.Error(`header line carries an "artifact" key`)
	}
	if fields["cached"] != true || fields["key"] != cold.Key {
		t.Errorf("header cached=%v key=%v, want a store hit on %s", fields["cached"], fields["key"], cold.Key)
	}
	if n, _ := fields["artifact_bytes"].(float64); int(n) != len(body) {
		t.Errorf("header artifact_bytes = %v, %d bytes follow it", fields["artifact_bytes"], len(body))
	}
	stored, err := d.Store().Get(cold.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, stored) {
		t.Error("bytes after the header differ from the stored payload")
	}
	if !bytes.Equal(body, cold.Artifact) {
		t.Error("bytes after the header differ from the cold reply's artifact")
	}
}

// TestClientRejectsHostileReplies feeds Client.Do replies that a broken
// or hostile daemon could send. Each must come back as an error, and a
// declared length must cost memory only for the bytes that arrive.
func TestClientRejectsHostileReplies(t *testing.T) {
	dir, err := os.MkdirTemp("", "simd")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	c := &Client{Socket: dir + "/hostile.sock"}
	ln, err := net.Listen("unix", c.Socket)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// serve answers one request with reply, then closes: a daemon killed
	// mid-write looks the same to the client.
	serve := func(reply string) <-chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			conn, err := ln.Accept()
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			if _, err := bufio.NewReader(conn).ReadBytes('\n'); err != nil {
				t.Error(err)
				return
			}
			io.WriteString(conn, reply)
		}()
		return done
	}
	for _, tc := range []struct{ name, reply string }{
		{"empty", ""},
		{"not-json", "this is not json\n"},
		{"two-values", `{"ok":true} {"ok":true}` + "\n"},
		{"null", "null\n"},
		{"no-newline", `{"ok":true}`},
		{"negative-length", `{"ok":true,"artifact_bytes":-1}` + "\n"},
		{"fractional-length", `{"ok":true,"artifact_bytes":1.5}` + "\n"},
		{"short-body", `{"ok":true,"cached":true,"artifact_bytes":10}` + "\n12345"},
		{"huge-length", `{"ok":true,"artifact_bytes":268435456}` + "\n{}"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := serve(tc.reply)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			resp, err := c.Do(Request{Op: "ping"})
			runtime.ReadMemStats(&after)
			<-done
			if err == nil {
				t.Fatalf("reply %.80q accepted: %+v", tc.reply, resp)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
				t.Errorf("allocated %d bytes for a %d-byte reply", n, len(tc.reply))
			}
		})
	}
}

// BenchmarkWarmRequest measures one store-hit run round trip over a
// daemon's unix socket: dial, request, header line and artifact. The
// stored artifact is ci/baseline.json, the size of the paper-smoke reply.
func BenchmarkWarmRequest(b *testing.B) {
	payload, err := os.ReadFile("../../ci/baseline.json")
	if err != nil {
		b.Fatal(err)
	}
	d, c := testDaemon(b, nil)
	spec, err := RunSpec{Tool: "reproduce", WindowMs: 1, SkipSensitivity: true}.Normalize()
	if err != nil {
		b.Fatal(err)
	}
	key, err := spec.Key(d.cfg.Fingerprint)
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Store().Put(key, payload); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.Run(spec, 0, false, true)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Cached || len(resp.Artifact) != len(payload) {
			b.Fatalf("reply cached=%v with %d bytes, want a %d-byte store hit", resp.Cached, len(resp.Artifact), len(payload))
		}
	}
}
