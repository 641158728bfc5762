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
// The write path is decomposed into pluggable policies, with the Encoder
// interface as the model: CorrectionPolicy decides what happens to detected
// WD errors (correction.go), PrereadScheduler manages the §4.3 pre-write
// reads (preread.go) and DrainPolicy picks the full-queue strategy
// (queue.go, cancel.go). The controller core — queue bookkeeping (queue.go)
// and operation timing (timing.go) — calls the policies only through their
// interfaces, so a new scheme plugs in without touching either file.
package mc

import (
	"fmt"

	"sdpcm/internal/alloc"
	"sdpcm/internal/din"
	"sdpcm/internal/ecp"
	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
	"sdpcm/internal/thermal"
	"sdpcm/internal/wd"
)

// Config selects the scheme composition and device parameters.
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
	// Correction resolves the WD errors that verification detects:
	// EagerCorrection rewrites the disturbed line immediately, LazyECP parks
	// the errors in free ECP entries (§4.2). Nil selects eager. Stateful
	// policies must not be shared between controllers — core.Scheme builds a
	// fresh value per MCConfig call.
	Correction CorrectionPolicy
	// ECPEntries is N of ECP-N (6 by default in the paper). Zero entries
	// with LazyECP degenerates to basic VnC.
	ECPEntries int
	// Preread schedules the two pre-write reads of §4.3: IdleSlotPreread
	// issues them from the write queue during bank idle slots, NoPreread
	// leaves them to the write op itself. Nil selects none.
	Preread PrereadScheduler
	// Drain picks the full-queue strategy: BurstyDrain flushes to the
	// watermark blocking the bank (§5.1), WriteCancelDrain lets demand reads
	// preempt the drain at write-op boundaries (§6.8 [22]). Nil selects
	// bursty.
	Drain DrainPolicy
	// WriteQueueCap is the per-bank write queue capacity (32 in Table 2).
	WriteQueueCap int
	// LowWatermark is the queue depth background draining drains down to:
	// writes above it are retired during bank idle time (read-priority
	// scheduling); writes below it wait in the queue — the population
	// PreRead works on. A full queue still triggers the §5.1 bursty drain
	// (to the watermark), which blocks that bank's reads. Defaults to a
	// quarter of WriteQueueCap.
	LowWatermark int
	// UseDIN enables the word-line disturbance-aware encoding. All
	// evaluated schemes keep it on (§4.1); turning it off exposes raw
	// word-line WD for the Figure 4 study.
	UseDIN bool
	// Encoder overrides the word-line codec (nil selects DIN when UseDIN
	// is set, identity otherwise). Used by the encoding ablation to swap
	// in Flip-N-Write or raw storage.
	Encoder Encoder
	// ForwardCycles is the latency of servicing a read from the write
	// queue's data buffer.
	ForwardCycles int
	// ChargeVerify / ChargeCorrect control whether verification reads and
	// correction work consume bank time. Both default true; switching one
	// off isolates the other's overhead (the Figure 5 decomposition).
	// Device/ECP state effects always happen regardless.
	ChargeVerify, ChargeCorrect bool
	// MaxCascadeDepth bounds cascading verification recursion.
	MaxCascadeDepth int
	// HardErrorFn, when set, pre-populates per-line ECP hard-error
	// occupancy (lifetime experiments, Fig. 14).
	HardErrorFn func(pcm.LineAddr) int
}

// normalized fills defaults.
func (c Config) normalized() Config {
	if c.Timing == (pcm.Timing{}) {
		c.Timing = pcm.DefaultTiming
	}
	if c.Correction == nil {
		c.Correction = EagerCorrection()
	}
	if c.Preread == nil {
		c.Preread = NoPreread()
	}
	if c.Drain == nil {
		c.Drain = BurstyDrain()
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
	if c.ForwardCycles <= 0 {
		c.ForwardCycles = 40
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
	LazyRecords      uint64 // error batches absorbed by the correction policy
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

// Add accumulates another Stats value. Every field is additive, so merging
// per-bank controller shards in bank order reproduces the single-controller
// aggregate exactly.
func (s *Stats) Add(o Stats) {
	s.DemandReads += o.DemandReads
	s.ForwardedReads += o.ForwardedReads
	s.WriteRequests += o.WriteRequests
	s.Coalesced += o.Coalesced
	s.WriteOps += o.WriteOps
	s.Drains += o.Drains
	s.PreReadsIssued += o.PreReadsIssued
	s.PreReadsForwarded += o.PreReadsForwarded
	s.PreReadsCanceled += o.PreReadsCanceled
	s.PreReadHits += o.PreReadHits
	s.VerifyReads += o.VerifyReads
	s.CascadeReads += o.CascadeReads
	s.CorrectionWrites += o.CorrectionWrites
	s.LazyRecords += o.LazyRecords
	s.CascadeTruncated += o.CascadeTruncated
	s.ReadPreemptions += o.ReadPreemptions
	s.BurstOps += o.BurstOps
	s.BackgroundOps += o.BackgroundOps
	s.ProgramCycles += o.ProgramCycles
	s.VerifyCycles += o.VerifyCycles
	s.CorrectCycles += o.CorrectCycles
	s.ReadCycles += o.ReadCycles
	s.ReadLatencySum += o.ReadLatencySum
	s.ReadWaitSum += o.ReadWaitSum
}

// Encoder is the word-line codec contract: a stored-image transform with
// per-line state. *din.Codec (including its nil identity form) and
// *fnw.Codec implement it.
type Encoder interface {
	Encode(a pcm.LineAddr, data, stored pcm.Line) pcm.Line
	Decode(a pcm.LineAddr, stored pcm.Line) pcm.Line
	Forget(a pcm.LineAddr)
}

// RegionResolver is the hardware-side interpretation of the TLB tag of
// Fig. 9: given a page, which (n:m) compression tag governs its region and
// where in the region's strip layout the page falls. *alloc.Allocator is the
// live implementation; the sharded simulator substitutes a versioned mirror
// so shard goroutines resolve tags without touching the allocator.
type RegionResolver interface {
	RegionTag(p pcm.PageAddr) alloc.Tag
	StripIndexInRegion(p pcm.PageAddr) int
	StripsPerRegion() int
}

// Controller is the memory controller for one DIMM.
type Controller struct {
	cfg    Config
	dev    *pcm.Device
	geo    pcm.Geometry
	ecp    *ecp.Table
	codec  Encoder
	engine *wd.Engine
	region RegionResolver

	// Optional CorrectionPolicy extensions, resolved once at construction so
	// the hot paths pay a nil check instead of a type assertion. All nil for
	// the built-in policies.
	readOverride  ReadOverrider
	writeObserver WriteObserver
	drainer       Drainer

	banks  []bank
	bank   int // the one bank this controller serves (BindBank), or -1 for all
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
// disturbance engine.
func New(cfg Config, dev *pcm.Device, region RegionResolver, rnd *rng.Rand) (*Controller, error) {
	cfg = cfg.normalized()
	table, err := ecp.New(cfg.ECPEntries)
	if err != nil {
		return nil, err
	}
	table.HardFn = cfg.HardErrorFn
	codec := cfg.Encoder
	if codec == nil {
		if cfg.UseDIN {
			codec = din.NewCodec()
		} else {
			codec = (*din.Codec)(nil) // nil-safe identity transform
		}
	}
	if region == nil {
		return nil, fmt.Errorf("mc: nil allocator")
	}
	c := &Controller{
		cfg:    cfg,
		dev:    dev,
		geo:    dev.Geometry(),
		ecp:    table,
		codec:  codec,
		engine: wd.New(cfg.Rates, rnd.SplitLabeled("mc:wd")),
		region: region,
		banks:  make([]bank, dev.Banks()),
		bank:   -1,
	}
	c.readOverride, _ = cfg.Correction.(ReadOverrider)
	c.writeObserver, _ = cfg.Correction.(WriteObserver)
	c.drainer, _ = cfg.Correction.(Drainer)
	return c, nil
}

// Instrument attaches the controller and its subcomponents (disturbance
// engine, ECP table) to a metrics registry: distribution histograms record
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
	c.engine.Instrument(reg.Trace())
	c.ecp.Instrument(reg)
}

// InstrumentHeatmap attaches a WD spatial heatmap to the controller and its
// disturbance engine: injected flips, LazyCorrection parks and correction
// writes accumulate per bank × line-region. A nil heatmap is the disabled
// (zero-overhead) default.
func (c *Controller) InstrumentHeatmap(h *wd.Heatmap) {
	c.hm = h
	c.engine.InstrumentHeatmap(h)
}

// BindBank declares that the controller serves only bank b of its device,
// as the simulator's per-bank controllers do. DecodeState then rejects
// checkpointed ECP and codec state for lines of any other bank.
func (c *Controller) BindBank(b int) { c.bank = b }

// Device exposes the underlying array (for wear statistics).
func (c *Controller) Device() *pcm.Device { return c.dev }

// ECP exposes the pointer table (for wear statistics).
func (c *Controller) ECP() *ecp.Table { return c.ecp }

// Engine exposes the disturbance engine (for error statistics).
func (c *Controller) Engine() *wd.Engine { return c.engine }

// PeekData returns the current logical content of a line: raw array bits,
// ECP-corrected, policy-corrected (when the correction policy buffers
// pending repairs, e.g. the in-module barrier), DIN-decoded. It models the
// data the LLC would hold and is used by the simulator to build write-back
// payloads.
func (c *Controller) PeekData(a pcm.LineAddr) pcm.Line {
	line := c.ecp.CorrectRead(a, c.dev.Peek(a))
	if c.readOverride != nil {
		line = c.readOverride.OverrideRead(a, line)
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
