package qt

import (
	"encoding/json"
	"testing"
)

// FuzzResolve feeds arbitrary bytes through qtd's wire decoding of a
// RunConfig and resolves what decodes. It runs Resolve alone — no device
// is built — so an input cannot make the fuzzer allocate a giant device.
// A configuration that resolves must hash without panicking, and
// resolving the resolved configuration again must keep its Key: resolve
// is idempotent, which is what lets a registry record be resubmitted.
func FuzzResolve(f *testing.F) {
	for _, tc := range goldenConfigs() {
		if tc.rc.Spec == (Spec{}) {
			tc.rc.Spec = smallSpec()
		}
		js, err := json.Marshal(tc.rc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(js)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var rc RunConfig
		if err := json.Unmarshal(data, &rc); err != nil {
			return
		}
		res, err := Resolve(rc)
		if err != nil {
			return
		}
		key := res.Key()
		res.WarmKey()
		res.Identity().Key()
		again, err := Resolve(res)
		if err != nil {
			t.Fatalf("resolved config %+v does not resolve again: %v", res, err)
		}
		if k := again.Key(); k != key {
			t.Fatalf("re-resolving moved the key %s to %s (config %+v)", key, k, res)
		}
	})
}
