package runner

import (
	"fmt"
	"strings"

	"sdpcm/internal/sim"
)

// Key returns the canonical encoding of a resolved simulation config, and
// whether the config is cacheable at all. Two configs share a key exactly
// when sim.Run is guaranteed to return the same Result for both: every
// semantic field is encoded, strings are quoted so labels cannot collide
// with the field grammar, and list fields carry their length.
//
// Configs that cannot be named declaratively are not cacheable: trace-replay
// streams (the stream is stateful and unnamed) and hard-error functions not
// declared through Overrides.HardErrorLifetime (an opaque func pointer says
// nothing about its behaviour).
func Key(cfg sim.Config, hardErrorLifetime float64) (string, bool) {
	if len(cfg.Streams) > 0 {
		return "", false
	}
	if cfg.Scheme.HardErrorFn != nil && hardErrorLifetime <= 0 {
		return "", false
	}
	if cfg.OnSnapshot != nil {
		// A snapshot callback is a live side effect: serving a memoized
		// result would silently skip every mid-run publication.
		return "", false
	}
	var b strings.Builder
	s := cfg.Scheme
	fmt.Fprintf(&b, "scheme=%q|layout=%q:%d:%d|lazy=%t|preread=%t|wc=%t|ecp=%d|tag=%d:%d|",
		s.Name, s.Layout.Name, s.Layout.WordLinePitchF, s.Layout.BitLinePitchF,
		s.LazyCorrection, s.PreRead, s.WriteCancel, s.ECPEntries, s.Tag.N, s.Tag.M)
	fmt.Fprintf(&b, "policykey=%q|", s.BarrierKey())
	fmt.Fprintf(&b, "noverify=%t|nocorrect=%t|enc=%q|hardlife=%g|",
		s.NoVerifyCharge, s.NoCorrectCharge, s.Encoding, hardErrorLifetime)
	fmt.Fprintf(&b, "mix=%q/%d", cfg.Mix.Name, len(cfg.Mix.Cores))
	for _, c := range cfg.Mix.Cores {
		fmt.Fprintf(&b, ",%q", c)
	}
	fmt.Fprintf(&b, "|refs=%d|mem=%d|region=%d|wq=%d|seed=%d|psi=%d|mutate=%g|integrity=%t|",
		cfg.RefsPerCore, cfg.MemPages, cfg.RegionPages, cfg.WriteQueueCap,
		cfg.Seed, cfg.WearLevelPsi, cfg.MutateChunkProb, cfg.CheckIntegrity)
	fmt.Fprintf(&b, "metrics=%t|trace=%d|heat=%d|snap=%d|",
		cfg.CollectMetrics, cfg.TraceEvents, cfg.HeatmapRegions, cfg.SnapshotInterval)
	fmt.Fprintf(&b, "coretags=%d", len(cfg.CoreTags))
	for _, t := range cfg.CoreTags {
		fmt.Fprintf(&b, ",%d:%d", t.N, t.M)
	}
	// The topology segment is appended only for non-default specs, so every
	// key (and durable store entry) minted before the topology layer existed
	// stays valid.
	if !cfg.Topology.IsDefault() {
		fmt.Fprintf(&b, "|topo=%q", cfg.Topology.Canon())
	}
	return b.String(), true
}
