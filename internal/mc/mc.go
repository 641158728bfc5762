// Package mc implements the SD-PCM memory controller (§4): per-bank write
// queues with bursty drain, the basic Verify-and-Correct (VnC) write flow
// with cascading verification, and the paper's three mitigation schemes —
// LazyCorrection (§4.2), PreRead (§4.3) and (n:m)-Alloc-aware verification
// skipping (§4.4) — plus write cancellation integration (§6.8).
//
// The controller is driven in global time order by the simulator: every
// public method takes `now` (the cycle the request reaches the controller)
// and returns completion times. Banks are modelled as serially-busy
// resources (`freeAt`); queued write work executes lazily as simulated time
// passes it, which lets write cancellation preempt a drain at write-op
// granularity without rolling back device state.
//
// Config selects each mechanism as a plain value, and its zero value is the
// paper's setting: PreRead and WriteCancel are flags the controller core
// reads directly (preread.go, queue.go); Correction picks eager correction,
// LazyCorrection or the in-module barrier (correction.go, barrier.go);
// Encoding picks the word-line codec New builds; (n:m)-Alloc is the
// allocator's region tag. A Config holds no mutable state, so one value can
// build any number of controllers.
package mc

import (
	"fmt"

	"sdpcm/internal/alloc"
	"sdpcm/internal/din"
	"sdpcm/internal/ecp"
	"sdpcm/internal/fnw"
	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
	"sdpcm/internal/snap"
	"sdpcm/internal/thermal"
	"sdpcm/internal/wd"
)

// Config selects the scheme composition and device parameters. The zero
// value of every field is the paper's setting (or none of the optional
// mechanism it names).
type Config struct {
	// Timing defaults to pcm.DefaultTiming when zero.
	Timing pcm.Timing
	// Rates are the per-axis disturbance probabilities of the chosen cell
	// layout (thermal.RatesFor).
	Rates thermal.Rates
	// VerifyNeighbors enables the bit-line VnC machinery. False models
	// WD-free bit-lines (DIN's 8F² layout or the 12F² prototype), where
	// writes need no adjacent-line handling.
	VerifyNeighbors bool
	// Correction resolves the WD errors that verification detects: Eager
	// rewrites the disturbed line immediately, LazyECP parks the errors in
	// free ECP entries (§4.2), Barrier buffers them in the in-module
	// barrier.
	Correction Correction
	// ECPEntries is N of ECP-N (6 by default in the paper). Zero entries
	// with LazyECP degenerates to basic VnC.
	ECPEntries int
	// PreRead issues the two pre-write reads of §4.3 from the write queue
	// during bank idle slots, forwarding neighbours that have a queued write;
	// demand reads cancel them in flight. Off, the write op performs them.
	PreRead bool
	// WriteCancel drains a full queue lazily so demand reads preempt the
	// drain at write-op boundaries (§6.8 [22]). Off, a full queue flushes to
	// the low watermark in one burst that blocks the bank (§5.1).
	WriteCancel bool
	// WriteQueueCap is the per-bank write queue capacity (32 in Table 2).
	WriteQueueCap int
	// LowWatermark is the queue depth background draining drains down to:
	// writes above it are retired during bank idle time (read-priority
	// scheduling); writes below it wait in the queue — the population
	// PreRead works on. A full queue still triggers the §5.1 bursty drain
	// (to the watermark), which blocks that bank's reads. Defaults to a
	// quarter of WriteQueueCap.
	LowWatermark int
	// Encoding is the word-line codec: DIN, which every evaluated scheme
	// keeps on (§4.1); FlipNWrite for the encoding ablation; or Raw storage,
	// which exposes word-line WD for the Figure 4 study.
	Encoding Encoding
	// NoVerifyCharge / NoCorrectCharge make verification reads or
	// correction work free in bank time; switching one off isolates the
	// other's overhead (the Figure 5 decomposition). Device/ECP state
	// effects always happen regardless.
	NoVerifyCharge, NoCorrectCharge bool
	// MaxCascadeDepth bounds cascading verification recursion.
	MaxCascadeDepth int
	// HardErrorLifetime ages the DIMM: the fraction of its lifetime in
	// [0, 1] whose hard errors pre-populate per-line ECP occupancy
	// (lifetime experiments, Fig. 14). 0 is pristine.
	HardErrorLifetime float64
}

// forwardCycles is the latency of servicing a read from the write queue's
// data buffer.
const forwardCycles = 40

// normalized fills defaults.
func (c Config) normalized() Config {
	if c.Timing == (pcm.Timing{}) {
		c.Timing = pcm.DefaultTiming
	}
	if c.WriteQueueCap <= 0 {
		c.WriteQueueCap = 32
	}
	if c.LowWatermark <= 0 {
		c.LowWatermark = c.WriteQueueCap / 4
	}
	if c.LowWatermark >= c.WriteQueueCap {
		c.LowWatermark = c.WriteQueueCap - 1
	}
	if c.MaxCascadeDepth <= 0 {
		c.MaxCascadeDepth = 64
	}
	return c
}

// Stats aggregates controller activity.
type Stats struct {
	DemandReads    uint64
	ForwardedReads uint64
	WriteRequests  uint64
	Coalesced      uint64 // write requests merged into an existing entry
	WriteOps       uint64 // write operations executed on the array
	Drains         uint64 // bursty drains triggered by a full queue

	PreReadsIssued    uint64
	PreReadsForwarded uint64 // satisfied from the write queue, no bank time
	PreReadsCanceled  uint64
	PreReadHits       uint64 // write ops that found both pre-reads done

	VerifyReads      uint64 // pre+post adjacent-line reads at write ops
	CascadeReads     uint64 // verification reads triggered by corrections
	CorrectionWrites uint64
	LazyRecords      uint64 // error batches absorbed by LazyECP or the barrier
	CascadeTruncated uint64 // cascades cut by MaxCascadeDepth

	ReadPreemptions uint64 // reads that preempted a drain (write cancellation)

	BurstOps      uint64 // write ops executed inside a full-queue bursty drain
	BackgroundOps uint64 // write ops executed during bank idle time

	// Cycle decomposition across all banks.
	ProgramCycles uint64
	VerifyCycles  uint64
	CorrectCycles uint64
	ReadCycles    uint64

	// Latency accounting for demand reads.
	ReadLatencySum uint64
	ReadWaitSum    uint64 // queueing component of read latency
}

// Counters lists the controller counters as metric rows, in field order
// (which is also their checkpoint order).
func (s *Stats) Counters() []metrics.Field {
	return []metrics.Field{
		{Name: "mc.demand_reads", V: &s.DemandReads},
		{Name: "mc.forwarded_reads", V: &s.ForwardedReads},
		{Name: "mc.write_requests", V: &s.WriteRequests},
		{Name: "mc.coalesced", V: &s.Coalesced},
		{Name: "mc.write_ops", V: &s.WriteOps},
		{Name: "mc.drains", V: &s.Drains},
		{Name: "mc.preread_issued", V: &s.PreReadsIssued},
		{Name: "mc.preread_forwarded", V: &s.PreReadsForwarded},
		{Name: "mc.preread_canceled", V: &s.PreReadsCanceled},
		{Name: "mc.preread_hits", V: &s.PreReadHits},
		{Name: "mc.verify_reads", V: &s.VerifyReads},
		{Name: "mc.cascade_reads", V: &s.CascadeReads},
		{Name: "mc.correction_writes", V: &s.CorrectionWrites},
		{Name: "mc.lazy_records", V: &s.LazyRecords},
		{Name: "mc.cascade_truncated", V: &s.CascadeTruncated},
		{Name: "mc.read_preemptions", V: &s.ReadPreemptions},
		{Name: "mc.burst_ops", V: &s.BurstOps},
		{Name: "mc.background_ops", V: &s.BackgroundOps},
		{Name: "mc.program_cycles", V: &s.ProgramCycles},
		{Name: "mc.verify_cycles", V: &s.VerifyCycles},
		{Name: "mc.correct_cycles", V: &s.CorrectCycles},
		{Name: "mc.read_cycles", V: &s.ReadCycles},
		{Name: "mc.read_latency_sum", V: &s.ReadLatencySum},
		{Name: "mc.read_wait_sum", V: &s.ReadWaitSum},
	}
}

// Add accumulates another Stats value. Every field is additive, so merging
// the simulator's per-module controllers in module order is exact.
func (s *Stats) Add(o Stats) { metrics.AddFields(s.Counters(), o.Counters()) }

// Encoding selects the word-line codec New builds.
type Encoding uint8

const (
	// DIN is the DIN codec (§4.1).
	DIN Encoding = iota
	// FlipNWrite is Flip-N-Write [7].
	FlipNWrite
	// Raw stores data unencoded.
	Raw
)

// lineCodec is the word-line codec contract: a stored-image transform with
// per-line state keyed by the slots of the device Bind names, and that
// state's checkpoint codec. *din.Codec (including its nil identity form,
// Raw) and *fnw.Codec implement it.
type lineCodec interface {
	Encode(a pcm.LineAddr, data, stored pcm.Line) pcm.Line
	Decode(a pcm.LineAddr, stored pcm.Line) pcm.Line
	Bind(dev *pcm.Device)
	EncodeState(e *snap.Encoder)
	DecodeState(d *snap.Decoder, owns func(pcm.LineAddr) bool) error
}

// Controller is the memory controller for one DIMM. Each bank has its own
// write queue and its own disturbance engine on a labeled RNG stream, so a
// bank's draws depend only on the ops issued to that bank: write
// disturbance couples adjacent rows of one bank and never crosses banks.
type Controller struct {
	cfg    Config
	dev    *pcm.Device
	geo    pcm.Geometry
	ecp    *ecp.Table
	codec  lineCodec
	region *alloc.Allocator
	// barrier is the in-module barrier's state, nil unless Correction is
	// Barrier: the read, write and flush paths pay one nil check for it.
	barrier *barrier

	banks  []bank
	nextID uint64
	Stats  Stats

	// Steady-state allocation elimination: retired write-queue entries are
	// recycled, and verification renders flip masks into per-depth scratch
	// buffers instead of fresh slices (see scratchBits).
	entryPool  []*writeEntry
	bitScratch [][]int

	// Instrumentation handles (all nil when uninstrumented: every use is a
	// nil-safe no-op, so the disabled cost is one branch per site).
	tr           *metrics.Trace
	hm           *wd.Heatmap
	readLat      *metrics.Histogram
	queueRes     *metrics.Histogram
	queueDepth   *metrics.Histogram
	cascadeDepth *metrics.Histogram
}

// New builds a controller. dev supplies the array; region supplies
// (n:m)-strip marking decisions (its RegionTag/StripIndexInRegion are the
// hardware-side interpretation of the TLB tag of Fig. 9); rnd seeds the
// disturbance engines: bank b draws from rnd → "bank-<b>" → "mc:wd".
func New(cfg Config, dev *pcm.Device, region *alloc.Allocator, rnd *rng.Rand) (*Controller, error) {
	cfg = cfg.normalized()
	table, err := ecp.New(cfg.ECPEntries)
	if err != nil {
		return nil, err
	}
	table.SetLifetime(cfg.HardErrorLifetime)
	table.Bind(dev)
	var codec lineCodec
	switch cfg.Encoding {
	case DIN:
		codec = din.NewCodec()
	case FlipNWrite:
		codec = fnw.NewCodec()
	case Raw:
		codec = (*din.Codec)(nil)
	default:
		return nil, fmt.Errorf("mc: unknown encoding %d", cfg.Encoding)
	}
	codec.Bind(dev)
	if region == nil {
		return nil, fmt.Errorf("mc: nil allocator")
	}
	c := &Controller{
		cfg:    cfg,
		dev:    dev,
		geo:    dev.Geometry(),
		ecp:    table,
		codec:  codec,
		region: region,
		banks:  make([]bank, dev.Banks()),
	}
	for i, r := range rnd.SplitLabeledSeq("bank", len(c.banks)) {
		c.banks[i].engine = wd.New(cfg.Rates, r.SplitLabeled("mc:wd"))
	}
	if cfg.Correction == Barrier {
		c.barrier = &barrier{}
	}
	return c, nil
}

// Instrument attaches the controller and its subcomponents (disturbance
// engines, ECP table) to a metrics registry: distribution histograms record
// on the hot path and the registry's event trace, when enabled, receives the
// controller's decision points. A nil registry leaves the controller
// uninstrumented — the zero-overhead default.
func (c *Controller) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	c.tr = reg.Trace()
	c.readLat = reg.Histogram("mc.read_latency", []uint64{400, 800, 1600, 3200, 6400, 12800, 25600, 51200})
	c.queueRes = reg.Histogram("mc.queue_residency", []uint64{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22})
	c.queueDepth = reg.Histogram("mc.queue_depth_at_enqueue", []uint64{1, 2, 4, 8, 16, 24, 32, 48})
	c.cascadeDepth = reg.Histogram("mc.cascade_depth", []uint64{0, 1, 2, 3, 4, 6, 8, 12, 16, 32})
	for i := range c.banks {
		c.banks[i].engine.Instrument(reg.Trace())
	}
	c.ecp.Instrument(reg)
}

// InstrumentHeatmap attaches a WD spatial heatmap to the controller and its
// disturbance engines: injected flips, LazyCorrection parks and correction
// writes accumulate per bank × line-region. A nil heatmap is the disabled
// (zero-overhead) default.
func (c *Controller) InstrumentHeatmap(h *wd.Heatmap) {
	c.hm = h
	for i := range c.banks {
		c.banks[i].engine.InstrumentHeatmap(h)
	}
}

// ECP exposes the pointer table (for wear statistics).
func (c *Controller) ECP() *ecp.Table { return c.ecp }

// WDStats sums the banks' disturbance-engine counters in bank order.
func (c *Controller) WDStats() wd.Stats {
	var s wd.Stats
	for i := range c.banks {
		s.Add(c.banks[i].engine.Stats)
	}
	return s
}

// engineFor returns the disturbance engine of a line's bank.
func (c *Controller) engineFor(a pcm.LineAddr) *wd.Engine {
	return c.banks[c.geo.Locate(a).Bank].engine
}

// PeekData returns the current logical content of a line: raw array bits,
// ECP-corrected, with the in-module barrier's pending repair applied (when
// it holds one), decoded. It models the data the LLC would hold and is used
// by the simulator to build write-back payloads.
func (c *Controller) PeekData(a pcm.LineAddr) pcm.Line {
	line := c.ecp.CorrectRead(a, c.dev.Peek(a))
	if c.barrier != nil {
		line = c.barrier.overrideRead(c, a, line)
	}
	return c.codec.Decode(a, line)
}

// LatestData returns the freshest logical content of a line, checking the
// bank's write queue before the array — the coherence rule forwarding uses.
// Wear-leveling copies read through this so a queued-but-undrained write is
// never lost by a rotation.
func (c *Controller) LatestData(a pcm.LineAddr) pcm.Line {
	b := &c.banks[c.geo.Locate(a).Bank]
	if e := b.findEntry(a); e != nil {
		return e.data
	}
	return c.PeekData(a)
}
