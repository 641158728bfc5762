package runner

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdpcm/internal/core"
	"sdpcm/internal/topo"
)

var updateKeys = flag.Bool("update-keys", false, "rewrite "+keysGolden+" from the current sim.Config.Key")

// keysGolden pins sim.Config.Key for every registered scheme, the two
// non-default word-line encodings, a Figure 14 aged point and a two-module
// topology point at one fixed Base. serve.DiskStore names each entry by the
// SHA-256 of its key, so a key that changes silently orphans every stored
// result; refresh only for a sanctioned key change with
//
//	go test ./internal/runner -run TestKeyGolden -update-keys
const keysGolden = "testdata/keys.golden"

func TestKeyGolden(t *testing.T) {
	base := Base{RefsPerCore: 4000, Cores: 4, MemPages: 1 << 16, RegionPages: 1024, Seed: 42}
	var specs []Spec
	for _, name := range core.Names() {
		s, err := core.ByName(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, Spec{Scheme: s, Bench: "mcf"})
	}
	for _, enc := range []string{"fnw", "none"} {
		s := core.Baseline()
		s.Encoding = enc
		specs = append(specs, Spec{Scheme: s, Bench: "mcf"})
	}
	aged := core.LazyC(6)
	aged.HardErrorLifetime = 0.6
	specs = append(specs, Spec{Scheme: aged, Bench: "mcf"})
	topoBase := base
	topoBase.Topology = topo.Demo2()
	var out strings.Builder
	emit := func(sp Spec, b Base) {
		k, ok := sp.Resolve(b).Key()
		if !ok {
			t.Fatalf("%s/%s: uncacheable", sp.Scheme.Name, sp.Scheme.Encoding)
		}
		fmt.Fprintln(&out, k)
	}
	for _, sp := range specs {
		emit(sp, base)
	}
	emit(Spec{Scheme: core.Baseline(), Bench: "mcf"}, topoBase)
	got := out.String()
	if *updateKeys {
		if err := os.MkdirAll(filepath.Dir(keysGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(keysGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(keysGolden)
	if err != nil {
		t.Fatalf("%v (generate with -update-keys)", err)
	}
	if got != string(want) {
		t.Fatalf("cache keys drifted from %s:\ngot:\n%swant:\n%s", keysGolden, got, want)
	}
}
