package daemon

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzRequest decodes arbitrary bytes as a Request, as the connection
// handler does, and normalizes its spec. Neither may panic, and a
// normalized spec must normalize to itself under the same store key.
func FuzzRequest(f *testing.F) {
	for _, s := range []string{
		`{"op":"run","spec":{"tool":"reproduce","window_ms":1,"skip_sensitivity":true,"experiments":"all"}}`,
		`{"op":"run","spec":{"tool":"reproduce","window_ms":0.5,"experiments":"fig3, table1,fig3"}}`,
		`{"op":"run","spec":{"tool":"reproduce","window_ms":1e12}}`,
		`{"op":"run","spec":{"tool":"chaosbench","seed":7,"window_ms":4,"cores":1073741824}}`,
		`{"op":"run","spec":{"tool":"chaosbench","scenarios":"poolsqueeze,faultstorm","system":"copy"}}`,
		`{"op":"run","spec":{"tool":"attackbench","payloads":"stale-read","systems":" copy,strict"}}`,
		`{"op":"run","spec":{"tool":"tenantbench","tenants":"016,2,16","frames":"7,007,+7"}}`,
		`{"op":"run","spec":{"tool":"tenantbench","tenants":"1000000000","frames":"1000000000"}}`,
		`{"op":"health"}`,
		`{"op":"run","deadline_ms":-1,"no_cache":true,"spec":{"tool":"nonesuch"}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
			return
		}
		n, err := req.Spec.Normalize()
		if err != nil {
			return
		}
		again, err := n.Normalize()
		if err != nil || again != n {
			t.Fatalf("Normalize(%+v) = %+v, renormalized %+v (%v)", req.Spec, n, again, err)
		}
		k1, err1 := n.Key("fuzz")
		k2, err2 := again.Key("fuzz")
		if err1 != nil || err2 != nil || k1 != k2 {
			t.Fatalf("key of %+v changed on renormalizing: %q (%v) vs %q (%v)", n, k1, err1, k2, err2)
		}
	})
}

// FuzzReply reads arbitrary bytes as a daemon reply, as Client.Do does.
// It must never panic; an accepted reply's artifact must be exactly the
// declared bytes after the header line, and writeReply must frame it so
// that reading and framing it again gives the same bytes. Seeds are a
// real store-hit run reply, an error reply and a health reply, each
// whole and truncated.
func FuzzReply(f *testing.F) {
	_, c := testDaemon(f, nil)
	mustRun(f, c, fastSpec(), false)
	for _, req := range []Request{
		{Op: "run", Spec: fastSpec()},
		{Op: "run", Spec: RunSpec{Tool: "nonesuch"}},
		{Op: "health"},
	} {
		raw := rawReply(f, c.Socket, req)
		head := bytes.IndexByte(raw, '\n') + 1
		cuts := []int{len(raw), head / 2, head - 1}
		if head < len(raw) {
			cuts = append(cuts, head, (head+len(raw))/2, len(raw)-1)
		}
		for _, n := range cuts {
			f.Add(raw[:n])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := readReply(bytes.NewReader(data))
		if err != nil {
			return
		}
		_, body, _ := bytes.Cut(data, []byte("\n"))
		if int64(len(resp.Artifact)) != resp.ArtifactBytes || !bytes.HasPrefix(body, resp.Artifact) {
			t.Fatalf("artifact_bytes %d but read %d bytes, not a prefix of the %d after the header",
				resp.ArtifactBytes, len(resp.Artifact), len(body))
		}
		var framed, again bytes.Buffer
		if err := writeReply(&framed, resp); err != nil {
			t.Fatalf("framing an accepted reply: %v", err)
		}
		resp2, err := readReply(bytes.NewReader(framed.Bytes()))
		if err != nil {
			t.Fatalf("reading back a framed reply: %v", err)
		}
		if err := writeReply(&again, resp2); err != nil {
			t.Fatalf("framing a read-back reply: %v", err)
		}
		if !bytes.Equal(framed.Bytes(), again.Bytes()) {
			t.Fatalf("framing is not stable:\n%.300q\n%.300q", framed.Bytes(), again.Bytes())
		}
	})
}
