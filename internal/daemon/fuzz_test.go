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
