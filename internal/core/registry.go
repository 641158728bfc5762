package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"sdpcm/internal/alloc"
)

// The scheme registry maps the CLI/experiment vocabulary to scheme
// constructors, the way database/sql maps driver names: packages register
// at init time (the built-in roster below) and callers resolve with ByName.
// sdpcm-sim, sdpcm-bench and experiments all look schemes up here, so a new
// scheme registered anywhere appears in every tool without edits.

// Ctor builds a registered scheme at the given ECP provisioning;
// ecpEntries <= 0 selects DefaultECPEntries. Constructors of schemes with
// no ECP use ignore the argument.
type Ctor func(ecpEntries int) Scheme

type regEntry struct {
	canonical string
	aliases   []string
	ctor      Ctor
}

var (
	regMu     sync.RWMutex
	registry  = map[string]*regEntry{} // lowercase name or alias → entry
	canonical []string                 // sorted canonical names
)

// Register adds a scheme constructor under a canonical name plus optional
// aliases (all matched case-insensitively). It panics on a duplicate name
// or alias — registration collisions are programming errors, caught at
// init time like duplicate database/sql drivers.
func Register(name string, aliases []string, ctor Ctor) {
	if name == "" || ctor == nil {
		panic("core: Register with empty name or nil constructor")
	}
	regMu.Lock()
	defer regMu.Unlock()
	e := &regEntry{canonical: strings.ToLower(name), aliases: aliases, ctor: ctor}
	keys := make([]string, 0, 1+len(aliases))
	for _, key := range append([]string{name}, aliases...) {
		key = strings.ToLower(key)
		if _, dup := registry[key]; dup {
			panic(fmt.Sprintf("core: scheme %q registered twice", key))
		}
		keys = append(keys, key)
	}
	for _, key := range keys {
		registry[key] = e
	}
	canonical = append(canonical, e.canonical)
	sort.Strings(canonical)
}

// ByName resolves a scheme name or alias (case-insensitive) through the
// registry. ecpEntries <= 0 selects DefaultECPEntries.
func ByName(name string, ecpEntries int) (Scheme, error) {
	regMu.RLock()
	e := registry[strings.ToLower(name)]
	regMu.RUnlock()
	if e == nil {
		return Scheme{}, fmt.Errorf("unknown scheme %q", name)
	}
	if ecpEntries <= 0 {
		ecpEntries = DefaultECPEntries
	}
	return e.ctor(ecpEntries), nil
}

// Names returns the sorted canonical names of every registered scheme —
// the live -scheme vocabulary for usage hints.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, len(canonical))
	copy(out, canonical)
	return out
}

// AliasesOf returns the registered aliases of a canonical scheme name (nil
// when it has none or is unknown). Documentation generators use this.
func AliasesOf(name string) []string {
	regMu.RLock()
	defer regMu.RUnlock()
	e := registry[strings.ToLower(name)]
	if e == nil || len(e.aliases) == 0 {
		return nil
	}
	out := make([]string, len(e.aliases))
	copy(out, e.aliases)
	return out
}

// The built-in roster: §5.3's schemes under the names the CLIs always used,
// plus the in-module barrier.
func init() {
	fixed := func(f func() Scheme) Ctor { return func(int) Scheme { return f() } }
	Register("din", nil, fixed(DIN))
	Register("wdfree", []string{"wd-free", "prototype"}, fixed(WDFree))
	Register("baseline", []string{"vnc"}, fixed(Baseline))
	Register("lazyc", nil, LazyC)
	Register("preread", nil, fixed(PreReadOnly))
	Register("lazyc+preread", nil, LazyCPreRead)
	Register("1:2", nil, fixed(func() Scheme { return NMAlloc(alloc.Tag12) }))
	Register("2:3", nil, fixed(func() Scheme { return NMAlloc(alloc.Tag23) }))
	Register("3:4", nil, fixed(func() Scheme { return NMAlloc(alloc.Tag34) }))
	Register("lazyc+2:3", nil, func(ecp int) Scheme { return LazyCNM(ecp, alloc.Tag23) })
	Register("all", []string{"lazyc+preread+2:3"}, func(ecp int) Scheme { return AllThree(ecp, alloc.Tag23) })
	Register("wc", nil, fixed(WC))
	Register("wc+lazyc", nil, WCLazyC)
	Register("imdb", []string{"barrier"}, IMDB)
}
