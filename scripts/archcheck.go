// Command archcheck asserts the package import DAG. The layered write path
// stays composable only if the dependency arrows keep pointing one way: the
// controller core (internal/mc), which holds every mechanism, must not know
// about the layers above it, and the scheme layer (internal/core), which
// composes those mechanisms into named schemes, must not know about the
// harness. `make lint` (and the CI lint job) runs this on every build.
//
// Usage: go run ./scripts/archcheck.go [repo-root]
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// forbiddenImports maps a package directory to import prefixes its non-test
// files must not pull in. Arrows point up the stack only:
//
//	cmd, facade → serve → experiments, runner, obs → sim → core, topo → mc → device models
var forbiddenImports = map[string][]string{
	// The topology layer is a pure description: it names modules, schemes and
	// geometry as data, and must never reach into the machinery that
	// interprets it — not the simulator, not the scheme registry (scheme names
	// stay strings, resolved by the consumer), not the harness.
	"internal/topo": {
		"sdpcm/internal/core",
		"sdpcm/internal/mc",
		"sdpcm/internal/sim",
		"sdpcm/internal/experiments",
		"sdpcm/internal/runner",
		"sdpcm/internal/obs",
		"sdpcm/internal/serve",
	},
	// The controller core is beneath the scheme/sim/harness layers; a
	// mechanism that imported its own assembler would be circular by design.
	"internal/mc": {
		"sdpcm/internal/core",
		"sdpcm/internal/topo",
		"sdpcm/internal/sim",
		"sdpcm/internal/experiments",
		"sdpcm/internal/runner",
		"sdpcm/internal/obs",
		"sdpcm/internal/serve",
	},
	// The scheme layer assembles controller configs; it must not depend on
	// who runs them (callers register schemes with core, never the reverse —
	// that is what keeps the registry open).
	"internal/core": {
		"sdpcm/internal/topo",
		"sdpcm/internal/sim",
		"sdpcm/internal/experiments",
		"sdpcm/internal/runner",
		"sdpcm/internal/obs",
		"sdpcm/internal/serve",
	},
	// The simulator drives the controller; the harness drives the simulator.
	"internal/sim": {
		"sdpcm/internal/experiments",
		"sdpcm/internal/runner",
		"sdpcm/internal/obs",
		"sdpcm/internal/serve",
	},
	// The sweep service composes the harness layers; none of them may know
	// it exists — jobs, the HTTP surface and the durable store stay an
	// optional shell over experiments/runner/obs, never a dependency of them.
	"internal/experiments": {
		"sdpcm/internal/serve",
	},
	"internal/runner": {
		"sdpcm/internal/serve",
	},
	"internal/obs": {
		"sdpcm/internal/serve",
	},
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	violations := checkImports(root)
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "archcheck: "+v)
		}
		os.Exit(1)
	}
}

// checkImports parses the import clauses of every non-test file in the
// constrained packages and reports forbidden edges.
func checkImports(root string) []string {
	var out []string
	dirs := make([]string, 0, len(forbiddenImports))
	for d := range forbiddenImports {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		banned := forbiddenImports[dir]
		for _, path := range goFiles(root, dir, false) {
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				out = append(out, err.Error())
				continue
			}
			for _, imp := range f.Imports {
				target, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				for _, b := range banned {
					if target == b || strings.HasPrefix(target, b+"/") {
						out = append(out, fmt.Sprintf("%s imports %s (forbidden: %s must stay below it)",
							rel(root, path), target, dir))
					}
				}
			}
		}
	}
	return out
}

// goFiles lists a directory's .go files, excluding tests unless asked.
func goFiles(root, dir string, tests bool) []string {
	entries, err := os.ReadDir(filepath.Join(root, dir))
	if err != nil {
		fmt.Fprintf(os.Stderr, "archcheck: %v\n", err)
		os.Exit(1)
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if !tests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, filepath.Join(root, dir, name))
	}
	sort.Strings(out)
	return out
}

func rel(root, path string) string {
	if r, err := filepath.Rel(root, path); err == nil {
		return r
	}
	return path
}
