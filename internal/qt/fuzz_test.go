package qt

import (
	"encoding/json"
	"testing"
)

// FuzzResolve feeds arbitrary bytes through qtd's wire decoding of a
// RunConfig and resolves what decodes. It runs resolve alone — no device
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
		s := &Simulation{cfg: rc}
		if err := s.resolve(); err != nil {
			return
		}
		key := s.cfg.Key()
		s.cfg.WarmKey()
		again := &Simulation{cfg: s.cfg}
		if err := again.resolve(); err != nil {
			t.Fatalf("resolved config %+v does not resolve again: %v", s.cfg, err)
		}
		if k := again.cfg.Key(); k != key {
			t.Fatalf("re-resolving moved the key %s to %s (config %+v)", key, k, s.cfg)
		}
	})
}
