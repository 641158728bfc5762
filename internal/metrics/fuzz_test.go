package metrics

import (
	"encoding/json"
	"errors"
	"testing"
)

// FuzzEventKindJSON feeds arbitrary bytes to EventKind.UnmarshalJSON. It must
// either fail with a typed error (malformed JSON, or *UnknownKindError) or
// decode a kind whose MarshalJSON form decodes back to the same kind.
func FuzzEventKindJSON(f *testing.F) {
	for _, name := range eventKindNames {
		f.Add([]byte(`"` + name + `"`))
	}
	for _, seed := range []string{`"kind-13"`, `""`, `null`, `3`, `"`, `"wd-injected"`, `["wd-parked"]`} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var k EventKind
		err := k.UnmarshalJSON(data)
		if err != nil {
			var unknown *UnknownKindError
			var syntax *json.SyntaxError
			var typ *json.UnmarshalTypeError
			if !errors.As(err, &unknown) && !errors.As(err, &syntax) && !errors.As(err, &typ) {
				t.Fatalf("untyped error for %q: %T %v", data, err, err)
			}
			return
		}
		if int(k) >= len(eventKindNames) {
			t.Fatalf("%q decoded to undefined kind %d", data, k)
		}
		out, err := k.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back EventKind
		if err := back.UnmarshalJSON(out); err != nil || back != k {
			t.Fatalf("%q -> %s -> %v, %v: round trip lost the kind", data, out, back, err)
		}
	})
}
