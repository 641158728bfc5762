// Command benchgate turns `go test -bench` output into a pinned JSON record
// and gates changes on ns/op regressions against a baseline record.
//
// Usage:
//
//	benchgate -emit bench.txt > BENCH_10.json
//	benchgate -gate -old main.json -new BENCH_10.json -threshold 10
//
// Emit mode aggregates repeated runs (-count N) of each benchmark into the
// median of every published metric, so one noisy run does not skew the
// record. Gate mode compares the intersection of the two records and exits
// non-zero when any benchmark's median ns/op regressed by more than the
// threshold; benchmarks absent from the baseline (newly added ones) are
// reported but never fail the gate. The CI job pairs this hard gate with an
// informational benchstat diff — see DESIGN.md ("Data plane & memory
// layout") for how to read the two together.
//
// Every emitted record carries a host stamp: the CPU count, GOMAXPROCS and
// Go version of the emitting process, plus the commit checked out in the
// working directory. Run emit on the host, in the environment and in the
// checkout the benchmarks ran in. Gate mode refuses to compare records whose
// host stamps differ or are missing: a ns/op delta across machines measures
// the machines, not the change.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type record struct {
	Name        string             `json:"name"`
	Runs        int                `json:"runs"`
	NsPerOp     float64            `json:"ns_per_op"`
	BPerOp      float64            `json:"b_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// host identifies where a record was measured. Commit is informational:
// the gate compares records of different commits by design.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit,omitempty"`
}

func (h host) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s", h.NumCPU, h.GOMAXPROCS, h.GoVersion)
}

type report struct {
	Note       string   `json:"note"`
	Host       *host    `json:"host,omitempty"`
	Benchmarks []record `json:"benchmarks"`
}

// stamp describes this process's host and the working directory's commit
// (empty outside a git checkout).
func stamp() *host {
	h := &host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// sameHost reports why two records may not be compared, or nil.
func sameHost(oldPath string, o *host, newPath string, n *host) error {
	switch {
	case o == nil:
		return fmt.Errorf("%s has no host stamp; re-emit it with this benchgate on the gating host", oldPath)
	case n == nil:
		return fmt.Errorf("%s has no host stamp; re-emit it with this benchgate on the gating host", newPath)
	case o.NumCPU != n.NumCPU || o.GOMAXPROCS != n.GOMAXPROCS || o.GoVersion != n.GoVersion:
		return fmt.Errorf("records come from different hosts (%s: %s; %s: %s); measure both on one host", oldPath, o, newPath, n)
	}
	return nil
}

func main() {
	var (
		emit      = flag.Bool("emit", false, "parse `go test -bench` text (file arg or stdin) and print a JSON record")
		gate      = flag.Bool("gate", false, "compare -new against -old and fail on ns/op regressions")
		oldPath   = flag.String("old", "", "baseline JSON record for -gate")
		newPath   = flag.String("new", "", "candidate JSON record for -gate")
		threshold = flag.Float64("threshold", 10, "ns/op regression percentage that fails the gate")
	)
	flag.Parse()
	switch {
	case *emit == *gate:
		fmt.Fprintln(os.Stderr, "benchgate: exactly one of -emit or -gate is required")
		os.Exit(2)
	case *emit:
		if err := runEmit(flag.Arg(0), os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(1)
		}
	default:
		ok, err := runGate(*oldPath, *newPath, *threshold)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

// cpuSuffix is the -GOMAXPROCS tail go test appends to benchmark names.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// parseBench reads `go test -bench` text and returns per-benchmark metric
// samples keyed by name (CPU suffix stripped), preserving first-seen order.
func parseBench(r io.Reader) (order []string, samples map[string]map[string][]float64, err error) {
	samples = map[string]map[string][]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := cpuSuffix.ReplaceAllString(fields[0], "")
		if _, ok := samples[name]; !ok {
			order = append(order, name)
			samples[name] = map[string][]float64{}
		}
		// fields[1] is the iteration count; the rest are value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			unit := fields[i+1]
			samples[name][unit] = append(samples[name][unit], v)
		}
	}
	return order, samples, sc.Err()
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func runEmit(path string, out io.Writer) error {
	in := io.Reader(os.Stdin)
	if path != "" && path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	order, samples, err := parseBench(in)
	if err != nil {
		return err
	}
	rep := report{Note: "medians over repeated `go test -bench` runs; see scripts/benchgate", Host: stamp()}
	for _, name := range order {
		rec := record{Name: name}
		for unit, vs := range samples[name] {
			m := median(vs)
			switch unit {
			case "ns/op":
				rec.NsPerOp = m
				rec.Runs = len(vs)
			case "B/op":
				rec.BPerOp = m
			case "allocs/op":
				rec.AllocsPerOp = m
			default:
				if rec.Metrics == nil {
					rec.Metrics = map[string]float64{}
				}
				rec.Metrics[unit] = m
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, rec)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &rep, nil
}

func runGate(oldPath, newPath string, threshold float64) (ok bool, err error) {
	if oldPath == "" || newPath == "" {
		return false, fmt.Errorf("-gate needs both -old and -new")
	}
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return false, err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return false, err
	}
	if err := sameHost(oldPath, oldRep.Host, newPath, newRep.Host); err != nil {
		return false, err
	}
	base := map[string]record{}
	for _, r := range oldRep.Benchmarks {
		base[r.Name] = r
	}
	ok = true
	for _, n := range newRep.Benchmarks {
		o, found := base[n.Name]
		if !found || o.NsPerOp == 0 {
			fmt.Printf("%-50s %12.1f ns/op  (no baseline — new benchmark)\n", n.Name, n.NsPerOp)
			continue
		}
		delta := (n.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
		verdict := "ok"
		if delta > threshold {
			verdict = fmt.Sprintf("FAIL (>%g%%)", threshold)
			ok = false
		}
		fmt.Printf("%-50s %12.1f -> %12.1f ns/op  %+7.1f%%  %s\n",
			n.Name, o.NsPerOp, n.NsPerOp, delta, verdict)
	}
	if !ok {
		fmt.Printf("\nbenchgate: ns/op regression beyond %g%% — see rows marked FAIL\n", threshold)
	}
	return ok, nil
}
