// Command perfbench is the repository benchmark. It drives the simulator
// through its public entry points on one workload, checks the program's
// outputs, prints every metric by name with its unit and sample count, and
// ends with one JSON result line:
//
//	bash perfbench/run.sh --workload mcf-write --seed 42 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate traced
// run that records spans around the benchmark's calls into each layer and
// reports the per-layer metrics. See README.md for what each number means.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// metricDef names one metric, its unit, which direction is better and, for
// a per-layer metric, the end-to-end metric and workload it should move.
type metricDef struct {
	name, unit, better, moves string
}

// endToEndDefs and perLayerDefs are the metrics BENCHMARK.json lists. Every
// workload reports every one of them (TestContractMatchesBenchmarkJSON keeps
// the two in step).
var endToEndDefs = []metricDef{
	{"refs_per_s", "refs/s", "higher", ""},
	{"setup_s", "s", "lower", ""},
	{"peak_rss_mb", "MB", "lower", ""},
}

var perLayerDefs = []metricDef{
	{"workload.next_ns", "ns", "lower", "refs_per_s, mostly on bwaves-read-topo2"},
	{"vm.translate_ns", "ns", "lower", "refs_per_s, mostly on bwaves-read-topo2"},
	{"vm.tlb_miss_ratio", "ratio", "lower", "refs_per_s, mostly on bwaves-read-topo2"},
	{"alloc.fault_ns", "ns", "lower", "refs_per_s on bwaves-read-topo2; setup_s and refs_per_s on serve-sweep"},
	{"mc.write_ns", "ns", "lower", "refs_per_s on mcf-write"},
	{"mc.read_ns", "ns", "lower", "refs_per_s on bwaves-read-topo2"},
	{"mc.flush_ms", "ms", "lower", "refs_per_s (cold sweep) on serve-sweep"},
	{"din.encode_ns", "ns", "lower", "refs_per_s on mcf-write; no change on bwaves-read-topo2"},
	{"pcm.write_ns", "ns", "lower", "refs_per_s on mcf-write; no change on bwaves-read-topo2"},
	{"pcm.peek_ns", "ns", "lower", "refs_per_s on mcf-write; no change on bwaves-read-topo2"},
	{"pcm.disturb_ns", "ns", "lower", "refs_per_s on mcf-write; no change on bwaves-read-topo2"},
	{"wd.onwrite_ns", "ns", "lower", "refs_per_s on mcf-write; no change on bwaves-read-topo2"},
	{"ecp.record_ns", "ns", "lower", "refs_per_s on mcf-write; no change on bwaves-read-topo2"},
	{"mc.write_ops", "count", "lower", "exact count: confirms the workload's write load"},
	{"mc.verify_reads_per_write", "ratio", "lower", "exact count: VnC work per write"},
	{"mc.corrections_per_write", "ratio", "lower", "exact count: correction work per write"},
	{"mc.preread_hit_ratio", "ratio", "higher", "exact count: PreRead use (0 without PreRead)"},
	{"mc.coalesced_ratio", "ratio", "higher", "exact count: write-queue coalescing"},
	{"wd.bitline_flips_per_write", "ratio", "lower", "exact count: disturbance injected per write"},
	{"ecp.lazy_records_per_write", "ratio", "lower", "exact count: LazyCorrection parks per write"},
	{"pcm.cell_writes_per_write", "count", "lower", "exact count: programmed cells per write"},
	{"topo.far_write_share", "ratio", "lower", "exact count: far-module write share (0 on one module)"},
	{"sim.cpi", "cycles/instr", "lower", "simulated, context only (model unvalidated against hardware)"},
	{"sim.run_s", "s", "lower", "refs_per_s on mcf-write and bwaves-read-topo2"},
	{"sim.replay_self_ns", "ns", "lower", "refs_per_s, mostly on bwaves-read-topo2 (the run loop)"},
	{"metrics.collect_overhead", "ratio", "lower", "refs_per_s (cold sweep) on serve-sweep, not refs_per_s on the sim workloads"},
	{"store.load_ms", "ms", "lower", "warm_job_p50_ms / warm_job_p95_ms on serve-sweep"},
	{"store.store_ms", "ms", "lower", "refs_per_s (cold sweep) on serve-sweep"},
	{"store.entry_kb", "KB", "lower", "warm_job latency and refs_per_s on serve-sweep"},
	{"trace.overhead", "ratio", "higher", "none: the cost of the traced run itself"},
}

// serveOnlyDefs are the serve-sweep figures that have no meaning on a
// single-simulation workload. They are printed and written to the layer
// file, but are not in the result line, which must carry the same metrics
// for every workload.
var serveOnlyDefs = []metricDef{
	{"cold_sweep_s", "s", "lower", ""},
	{"warm_job_p50_ms", "ms", "lower", ""},
	{"warm_job_p95_ms", "ms", "lower", ""},
	{"serve.submit_ms", "ms", "lower", "warm_job_p50_ms / warm_job_p95_ms"},
	{"serve.stream_ms", "ms", "lower", "warm_job_p50_ms / warm_job_p95_ms"},
	{"serve.result_ms", "ms", "lower", "warm_job_p50_ms / warm_job_p95_ms"},
	{"runner.points", "count", "lower", "cold_sweep_s"},
	{"runner.sim_runs", "count", "lower", "cold_sweep_s"},
	{"runner.dedup_ratio", "ratio", "higher", "cold_sweep_s"},
	{"runner.point_ms", "ms", "lower", "cold_sweep_s (measured by the program itself)"},
	{"runner.busy_ratio", "ratio", "higher", "cold_sweep_s"},
}

// failedFrac is printed for every workload; it is not a result-line metric
// because it is 0 on a healthy run (the result line carries attempted and
// failed instead).
var failedFrac = metricDef{"failed_frac", "ratio", "lower", ""}

func lookupDef(name string) (metricDef, bool) {
	for _, set := range [][]metricDef{endToEndDefs, perLayerDefs, serveOnlyDefs, {failedFrac}} {
		for _, d := range set {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"mcf-write":         mcfWrite.run,
	"bwaves-read-topo2": bwavesReadTopo2.run,
	"serve-sweep":       runServeSweep,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bench is the state of one benchmark invocation.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // span files, layer files and temporary stores
	host     hostStamp

	ops      tally
	failures []string
	values   map[string]float64
}

// put records a metric and prints it with its unit and note (sample count,
// percentile, provenance).
func (b *bench) put(name string, v float64, note string) {
	d, ok := lookupDef(name)
	if !ok {
		panic("perfbench: undefined metric " + name)
	}
	b.values[name] = v
	fmt.Printf("metric   %-28s %14.6g %-12s %s\n", name, v, d.unit, note)
}

// check records one output check; a failed check makes the run incorrect.
func (b *bench) check(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if !ok {
		b.failures = append(b.failures, msg)
		fmt.Printf("check    FAIL %s\n", msg)
		return
	}
	fmt.Printf("check    ok   %s\n", msg)
}

// resultMetric is one entry of the result line.
type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// result assembles the result line from the metrics of this run's mode.
func (b *bench) result() (resultLine, error) {
	defs := endToEndDefs
	if b.trace {
		defs = perLayerDefs
	}
	r := resultLine{
		Correct:   len(b.failures) == 0,
		Attempted: b.ops.attempted,
		Failed:    b.ops.failed,
		Metrics:   make(map[string]resultMetric, len(defs)),
	}
	for _, d := range defs {
		v, ok := b.values[d.name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = resultMetric{Value: v, Unit: d.unit}
	}
	return r, nil
}

// hostStamp identifies the host and source a result came from.
type hostStamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

func stampHost() hostStamp {
	h := hostStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown (not a git checkout)",
		Source:     sourceDigest("."),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// sourceDigest hashes the module's Go sources and go.mod files under root in
// lexical order, skipping dot directories — a commit stand-in that also
// works in a checkout without git metadata.
func sourceDigest(root string) string {
	sum := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(sum, path+"\x00")
		_, err = io.Copy(sum, f)
		return err
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(sum.Sum(nil))[:16]
}

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return -1
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// layerFile is the traced run's per-layer record: every per-layer figure,
// the serve-only ones included, with what it should move.
type layerFile struct {
	Host     hostStamp    `json:"host"`
	Workload string       `json:"workload"`
	Seed     uint64       `json:"seed"`
	Metrics  []layerEntry `json:"metrics"`
	// Spans totals the run's spans per name: inclusive and self time.
	Spans map[string]*layerTotal `json:"spans"`
}

type layerEntry struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Moves  string  `json:"moves,omitempty"`
}

// writeTrace writes the span file and the layer file of a traced run.
func (b *bench) writeTrace(tr *Tracer) error {
	base := filepath.Join(b.out, fmt.Sprintf("%s-seed%d", b.workload, b.seed))
	if err := tr.Write(base+".spans.jsonl.gz", b.host); err != nil {
		return err
	}
	lf := layerFile{Host: b.host, Workload: b.workload, Seed: b.seed, Spans: tr.Totals()}
	for _, set := range [][]metricDef{perLayerDefs, serveOnlyDefs} {
		for _, d := range set {
			if v, ok := b.values[d.name]; ok {
				lf.Metrics = append(lf.Metrics, layerEntry{d.name, v, d.unit, d.better, d.moves})
			}
		}
	}
	data, err := json.MarshalIndent(lf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".layers.json", append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("layer file: %w", err)
	}
	fmt.Printf("trace    spans %s.spans.jsonl.gz, layers %s.layers.json\n", base, base)
	return nil
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := flags.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flags.Uint64("seed", 42, "workload seed, passed to the program only as Seed / job seed")
	seconds := flags.Float64("seconds", 10, "length of the measured phase")
	traced := flags.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	out := flags.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for span files, layer files and temporary stores")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seed == 0 || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --seed > 0 (the job API reads 0 as its default), --trace 0|1 and --seconds > 0")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traced == 1,
		out:      *out,
		host:     stampHost(),
		values:   make(map[string]float64),
	}
	fmt.Printf("host     nproc=%d GOMAXPROCS=%d go=%s commit=%s source=%s\n",
		b.host.NumCPU, b.host.GOMAXPROCS, b.host.Go, b.host.Commit, b.host.Source)
	fmt.Printf("run      workload=%s seed=%d seconds=%g trace=%d (executor knobs at program defaults)\n",
		b.workload, b.seed, b.seconds, *traced)
	err := drive(b)
	if err == nil {
		b.check(b.ops.failed == 0, "every operation succeeded (%s failed)", b.ops.String())
		b.put(failedFrac.name, b.ops.frac(), fmt.Sprintf("failed/attempted = %s", b.ops.String()))
		if b.ops.firstErr != nil {
			fmt.Printf("error    first failure: %v\n", b.ops.firstErr)
		}
	}
	var res resultLine
	if err == nil {
		res, err = b.result()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
