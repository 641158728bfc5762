// Package sdpcm is a library-quality reproduction of "SD-PCM: Constructing
// Reliable Super Dense Phase Change Memory under Write Disturbance"
// (Wang, Jiang, Zhang, Yang — ASPLOS 2015).
//
// It provides:
//
//   - the SD-PCM design itself: LazyCorrection (ECP-backed deferred
//     correction of write-disturbance errors), PreRead (write-queue driven
//     early reads of adjacent lines) and (n:m)-Alloc (a WD-aware buddy page
//     allocator), all layered over a basic verify-and-correct write flow;
//   - every substrate the paper depends on, implemented from scratch: a
//     bit-accurate PCM device model with differential write, a calibrated
//     thermal disturbance model, DIN-style word-line encoding, ECP, a
//     memory controller with per-bank write queues and write cancellation,
//     an event-driven 8-core system simulator, page tables/TLB, and
//     synthetic SPEC2006/STREAM workload generators calibrated to the
//     paper's Table 3;
//   - an experiment harness that regenerates every table and figure of the
//     paper's evaluation (§6).
//
// # Quick start
//
//	res, err := sdpcm.Run(sdpcm.SimConfig{
//	    Scheme:      sdpcm.LazyCPreRead(6),
//	    Mix:         sdpcm.HomogeneousMix("lbm", 8),
//	    RefsPerCore: 100000,
//	})
//
// Compare against sdpcm.Baseline() to obtain the paper's §5.2 speedup
// metric, or call the Figure functions (sdpcm.Fig11, ...) for ready-made
// result tables.
package sdpcm

// The golden regression tables under testdata/golden/ pin every experiment's
// rendered output byte-for-byte; refresh them after an intentional simulator
// change (also available as `make golden`).
//go:generate ./scripts/golden.sh --update

import (
	"fmt"
	"io"
	"os"

	"sdpcm/internal/alloc"
	"sdpcm/internal/core"
	"sdpcm/internal/experiments"
	"sdpcm/internal/geometry"
	"sdpcm/internal/metrics"
	"sdpcm/internal/obs"
	"sdpcm/internal/runner"
	"sdpcm/internal/sim"
	"sdpcm/internal/stats"
	"sdpcm/internal/thermal"
	"sdpcm/internal/trace"
	"sdpcm/internal/wd"
	"sdpcm/internal/workload"
)

// Scheme is one design point: cell-array layout plus the mitigation stack
// (§5.3). Construct schemes with the factory functions below or compose the
// fields directly.
type Scheme = core.Scheme

// Tag identifies an (n:m) page allocator: n of every m device strips hold
// data (§4.4).
type Tag = alloc.Tag

// Common allocator tags.
var (
	Tag11 = alloc.Tag11 // default allocator, every strip used
	Tag12 = alloc.Tag12 // every other strip: VnC-free writes
	Tag23 = alloc.Tag23 // one neighbour per write to verify
	Tag34 = alloc.Tag34
)

// Layouts of Figure 1.
var (
	SuperDense  = geometry.SuperDense  // 4F²/cell: SD-PCM's target
	DINEnhanced = geometry.DINEnhanced // 8F²/cell: word-line WD only
	Prototype   = geometry.Prototype   // 12F²/cell: WD-free
)

// Scheme factories (§5.3 roster).
var (
	// DIN is the state-of-the-art comparator (8F², no bit-line WD).
	DIN = core.DIN
	// WDFree is the 12F² disturbance-free reference.
	WDFree = core.WDFree
	// Baseline is basic VnC on super dense 4F² PCM.
	Baseline = core.Baseline
	// LazyC adds LazyCorrection with ECP-N (§4.2).
	LazyC = core.LazyC
	// PreReadOnly adds PreRead to the baseline (§4.3).
	PreReadOnly = core.PreReadOnly
	// LazyCPreRead combines LazyCorrection and PreRead.
	LazyCPreRead = core.LazyCPreRead
	// NMAlloc is baseline VnC under an (n:m) allocator (§4.4).
	NMAlloc = core.NMAlloc
	// LazyCNM combines LazyCorrection with an (n:m) allocator.
	LazyCNM = core.LazyCNM
	// AllThree combines LazyCorrection, PreRead and (n:m)-Alloc.
	AllThree = core.AllThree
	// WC is write cancellation over baseline VnC (§6.8).
	WC = core.WC
	// WCLazyC combines write cancellation with LazyCorrection.
	WCLazyC = core.WCLazyC
	// Figure11Roster returns the paper's headline scheme list.
	Figure11Roster = core.Figure11Roster
)

// DefaultECPEntries is the paper's ECP provisioning (ECP-6).
const DefaultECPEntries = core.DefaultECPEntries

// Scheme registry re-exports: schemes register constructors under CLI
// names at init time (internal/core's built-in roster, the in-module
// barrier included) and every tool resolves -scheme arguments through the
// registry, so a newly registered scheme appears everywhere without
// per-tool edits.
var (
	// SchemeByName resolves a registered scheme name or alias
	// (case-insensitive); ecpEntries <= 0 selects DefaultECPEntries.
	SchemeByName = core.ByName
	// SchemeNames lists the sorted canonical names of every registered
	// scheme — the live -scheme vocabulary.
	SchemeNames = core.Names
	// SchemeAliases lists the registered aliases of a canonical name.
	SchemeAliases = core.AliasesOf
	// RegisterScheme adds a scheme constructor to the registry (panics on a
	// duplicate name or alias). A registered scheme is a Scheme value
	// composed from the controller's mechanisms (layout, correction,
	// PreRead, write cancellation, ECP, allocator tag, encoding); a new
	// mechanism is a controller change, not a registration.
	RegisterScheme = core.Register
)

// SimConfig configures one full-system simulation (§5.1 methodology).
type SimConfig = sim.Config

// SimResult is a simulation outcome: CPI, controller/device/ECP/WD
// statistics and derived figure metrics.
type SimResult = sim.Result

// Run executes one simulation.
func Run(cfg SimConfig) (SimResult, error) { return sim.Run(cfg) }

// Checkpoint/resume re-exports: set SimConfig.CheckpointEvery/CheckpointPath
// to periodically snapshot a run's complete state, and SimConfig.ResumeFrom
// to continue from such a snapshot with a Result byte-identical to the
// uninterrupted run. Sweeps checkpoint through SweepRunner.CheckpointDir
// (with SweepRunner.CheckpointEvery). Every configuration checkpoints.
//
// ErrResume marks a checkpoint that cannot be used (missing, corrupt,
// version-incompatible, or from a different configuration); callers fall
// back to a cold start.
var ErrResume = sim.ErrResume

// Speedup is the §5.2 performance metric: CPI_base / CPI_tech.
func Speedup(base, tech SimResult) float64 { return stats.Speedup(base.CPI, tech.CPI) }

// Metrics observability re-exports: enable via SimConfig.CollectMetrics /
// SimConfig.TraceEvents (or the matching ExperimentOptions fields) and read
// the deterministic per-run snapshot from SimResult.Metrics. Same config and
// seed ⇒ byte-identical snapshot, so snapshots double as regression
// fixtures.

// MetricsSnapshot is one run's exported counters, gauges, histograms and
// event-trace tail, name-sorted for stable diffing and JSON export.
type MetricsSnapshot = metrics.Snapshot

// MetricsEvent is one typed event-trace record.
type MetricsEvent = metrics.Event

// MetricsEventKind labels an event-trace record type.
type MetricsEventKind = metrics.EventKind

// MetricsHistogramPoint is one exported fixed-bucket distribution.
type MetricsHistogramPoint = metrics.HistogramPoint

// Live observability re-exports (internal/obs): an HTTP server exposing
// /metrics (Prometheus text exposition), /progress (sweep progress JSON),
// /events (the event-ring tail) and /debug/pprof/ while a run or sweep is
// in flight, plus offline exporters for Perfetto timelines and the WD
// spatial heatmap. The sdpcm-sim and sdpcm-bench -listen flags wire these
// up; library users compose them directly.

// ObsServer serves the live observability endpoints. A sweep feeds its
// Progress tracker as an observer, and /metrics serves the tracker's merged
// aggregate; a single run publishes snapshots with SetSnapshot (assignable
// to SimConfig.OnSnapshot), which take precedence once published.
type ObsServer = obs.Server

// NewObsServer builds an observability server with an empty snapshot and a
// fresh progress tracker.
func NewObsServer() *ObsServer { return obs.NewServer() }

// ObsProgress folds a sweep's point events: exclusive outcome counts
// (errored, stored, cached, else simulated) per experiment and in total,
// an EWMA point rate and ETA, and the merged metrics snapshot and WD
// heatmap. It implements SweepObserver.
type ObsProgress = obs.Progress

// ObsProgressSnapshot is the /progress JSON payload.
type ObsProgressSnapshot = obs.ProgressSnapshot

// WritePerfetto converts an event-trace tail (SimResult.Metrics.Events)
// into Chrome trace-event JSON loadable in ui.perfetto.dev: one track per
// PCM bank, queue drains as duration slices, WD and PreRead decision points
// as instants.
func WritePerfetto(w io.Writer, events []MetricsEvent) error {
	return obs.WritePerfetto(w, events)
}

// WritePrometheus renders a metrics snapshot in the Prometheus text
// exposition format.
func WritePrometheus(w io.Writer, s *MetricsSnapshot) error {
	return obs.WritePrometheus(w, s)
}

// PromLabel is one Prometheus label pair for WritePrometheusLabeled — the
// sweep service scopes each job's series with {job="<id>"} this way.
type PromLabel = obs.Label

// WritePrometheusLabeled renders a metrics snapshot with a label set
// attached to every series (histogram buckets merge the labels with `le`).
func WritePrometheusLabeled(w io.Writer, s *MetricsSnapshot, labels []PromLabel) error {
	return obs.WritePrometheusLabeled(w, s, labels)
}

// HeatmapSnapshot is the WD spatial heatmap export: per bank × line-region
// injected flips, parked errors and cascade activity. Enable via
// SimConfig.HeatmapRegions (or ExperimentOptions.HeatmapRegions) and read
// it from SimResult.Heatmap; merge sweep points with Merge.
type HeatmapSnapshot = wd.HeatmapSnapshot

// HeatCell is one bank × line-region bucket of the heatmap.
type HeatCell = wd.HeatCell

// WriteHeatmapTable renders the heatmap as fixed-width ASCII tables.
func WriteHeatmapTable(w io.Writer, s *HeatmapSnapshot) error {
	return obs.WriteHeatmapTable(w, s)
}

// WriteHeatmapJSON writes the heatmap as indented JSON.
func WriteHeatmapJSON(w io.Writer, s *HeatmapSnapshot) error {
	return obs.WriteHeatmapJSON(w, s)
}

// MixSpec names the per-core benchmarks of a multi-programmed workload.
type MixSpec = workload.MixSpec

// HomogeneousMix builds the paper's workload shape: every core runs a copy
// of the same benchmark (§5.2).
func HomogeneousMix(bench string, cores int) MixSpec {
	return workload.HomogeneousMix(bench, cores)
}

// Benchmarks returns the Table 3 application names.
func Benchmarks() []string { return workload.Names() }

// TraceRecord is one main-memory reference of a trace.
type TraceRecord = trace.Record

// TraceStream feeds references to a simulated core; assign streams to
// SimConfig.Streams to replay captured traces (the sdpcm-trace workflow)
// instead of running live generators.
type TraceStream = trace.Stream

// LoadTraceStreams opens binary trace files (written by sdpcm-trace or
// trace.WriteAll) as one replay stream per file/core.
func LoadTraceStreams(paths ...string) ([]TraceStream, error) {
	out := make([]TraceStream, 0, len(paths))
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		recs, err := trace.ReadAll(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, trace.NewSliceStream(recs))
	}
	return out, nil
}

// TraceStreamReader iterates a binary trace through a bounded buffer — a
// billion-reference trace replays in constant memory. It implements
// TraceStream; check Err after the stream ends to distinguish a clean end
// from a decode failure.
type TraceStreamReader = trace.StreamReader

// OpenTraceStreams opens binary trace files as one bounded-memory replay
// stream per file/core, without materialising the records the way
// LoadTraceStreams does. The caller owns closing the returned files once the
// simulation finishes.
func OpenTraceStreams(paths ...string) ([]TraceStream, []io.Closer, error) {
	streams := make([]TraceStream, 0, len(paths))
	closers := make([]io.Closer, 0, len(paths))
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			for _, c := range closers {
				c.Close()
			}
			return nil, nil, err
		}
		streams = append(streams, trace.NewStreamReader(f))
		closers = append(closers, f)
	}
	return streams, closers, nil
}

// CaptureWorkload generates n references of a Table 3 benchmark as trace
// records (the sdpcm-trace `gen` path, programmatically).
func CaptureWorkload(bench string, n int, seed uint64) ([]TraceRecord, error) {
	spec, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	g, err := workload.NewGenerator(spec, seed)
	if err != nil {
		return nil, err
	}
	return workload.Capture(g, n), nil
}

// WriteTrace serialises trace records to the binary trace format.
func WriteTrace(w io.Writer, recs []TraceRecord) error { return trace.WriteAll(w, recs) }

// ReadTrace deserialises a binary trace stream.
func ReadTrace(r io.Reader) ([]TraceRecord, error) { return trace.ReadAll(r) }

// WorkloadSpec describes one benchmark's calibrated memory behaviour.
type WorkloadSpec = workload.Spec

// WorkloadByName returns the Table 3 spec for a benchmark.
func WorkloadByName(name string) (WorkloadSpec, error) { return workload.ByName(name) }

// DisturbanceRates returns the per-axis WD probabilities of a cell layout
// at the paper's 20 nm node (Table 1 for the 4F² layout).
func DisturbanceRates(layout geometry.Layout) (wordLine, bitLine float64) {
	r := thermal.RatesFor(layout.WordLinePitchF, layout.BitLinePitchF, geometry.FeatureSizeNM)
	return r.WordLine, r.BitLine
}

// DisturbanceRatesAt evaluates the thermal model at an arbitrary technology
// node and cell pitch (in feature sizes) — the §2.2.2 scaling model. It
// shows WD emerging as PCM scales: negligible at 54 nm, ~10 % at 20 nm.
func DisturbanceRatesAt(wordLinePitchF, bitLinePitchF int, nodeNM float64) (wordLine, bitLine float64) {
	r := thermal.RatesFor(wordLinePitchF, bitLinePitchF, nodeNM)
	return r.WordLine, r.BitLine
}

// CapacityComparison reproduces the §6.1 capacity analysis for a memory of
// the given size (GB): SD-PCM vs the DIN design at equal cell-array area.
func CapacityComparison(capacityGB float64) (sdpcmGB, dinGB, improvement float64) {
	c := geometry.CompareCapacity(capacityGB, geometry.PaperDIMM)
	return c.SDPCMCapacityGB, c.DINCapacityGB, c.ImprovementFraction
}

// Experiment harness re-exports: each Figure function regenerates the
// corresponding table/figure of the paper's §6 and returns a renderable
// result table.

// ExperimentOptions names one sweep: the embedded SweepBase (trace length,
// cores, memory size, seed, observability), the benchmark subset and scheme
// roster, and the per-call executor (Exec), observer and context.
type ExperimentOptions = experiments.Options

// ResultTable is a named grid of experiment results; its String method
// renders a fixed-width table mirroring the paper's figure.
type ResultTable = stats.Table

// Sweep executor re-exports (the declarative experiment runner): declare a
// grid of simulation points, execute them on a bounded worker pool with
// memoization, observe per-point progress. Results are bit-identical to a
// sequential run regardless of worker count.

// SweepSpec names one simulation point of a declarative sweep: scheme,
// benchmark, write-queue capacity and a free-form tag. A point's hard-error
// lifetime is a field of its scheme.
type SweepSpec = runner.Spec

// SweepGrid declares a sweep as the cross product of its axes; Expand lists
// the points benchmark-major.
type SweepGrid = runner.Grid

// SweepBase holds the sweep-wide simulation parameters shared by every
// point (trace length, cores, memory sizing, seed).
type SweepBase = runner.Base

// SweepRunner executes sweep points in parallel, memoizing results by
// resolved configuration; its fields (Workers, NoCache, Store,
// CheckpointDir, CheckpointEvery) are the executor's only knobs. The zero
// value is ready to use; assign one runner to ExperimentOptions.Exec across
// several figure calls to deduplicate points between figures (the
// sdpcm-bench -exp all path).
type SweepRunner = runner.Runner

// SweepStats is a snapshot of a runner's point/simulation/cache counters.
type SweepStats = runner.Stats

// SweepMemoStore is the durable tier under a runner's in-memory memo
// cache: assign one (e.g. the sweep service's on-disk result store) to
// SweepRunner.Store and cacheable points hit disk across processes instead
// of re-simulating.
type SweepMemoStore = runner.MemoStore

// SweepObserver receives one event per completed sweep point.
type SweepObserver = runner.Observer

// SweepObserverFunc adapts a function to the SweepObserver interface.
type SweepObserverFunc = runner.ObserverFunc

// SweepEvent describes one completed sweep point: its spec, wall time,
// cache status and error.
type SweepEvent = runner.PointEvent

// SweepProgress returns an observer streaming one line per completed point
// to w (the sdpcm-bench -progress view).
func SweepProgress(w io.Writer) SweepObserver { return runner.Progress(w) }

// SweepMulti fans each event out to every observer in order.
func SweepMulti(obs ...SweepObserver) SweepObserver { return runner.Multi(obs...) }

// Experiment regenerators, one per published table/figure.
var (
	Table1   = experiments.Table1
	Capacity = experiments.Capacity
	Fig4     = experiments.Fig4
	Fig5     = experiments.Fig5
	Fig11    = experiments.Fig11
	Fig12    = experiments.Fig12
	Fig13    = experiments.Fig13
	Fig14    = experiments.Fig14
	Fig15    = experiments.Fig15
	Fig16    = experiments.Fig16
	Fig17    = experiments.Fig17
	Fig18    = experiments.Fig18
	Fig19    = experiments.Fig19
	Overhead = experiments.Overhead
)

// Experiment is one named entry of the evaluation registry — the single
// source of truth behind sdpcm-bench's -exp vocabulary and the sweep
// service's job API.
type Experiment = experiments.Experiment

// Experiments lists every registered experiment in presentation order.
func Experiments() []Experiment { return experiments.Registry() }

// ExperimentNames lists the registry's names in order.
func ExperimentNames() []string { return experiments.ExperimentNames() }

// ExperimentByName resolves one registry entry.
func ExperimentByName(name string) (Experiment, error) { return experiments.ByName(name) }
