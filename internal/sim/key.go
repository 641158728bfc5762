package sim

import (
	"fmt"
	"strings"
)

// Key returns the canonical encoding of the config, and whether the config
// is cacheable at all. Two configs share a key exactly when Run is
// guaranteed to return the same Result for both: every semantic field is
// encoded, strings are quoted so labels cannot collide with the field
// grammar, and list fields carry their length. The sweep runner memoizes
// and stores results under it; a checkpoint's identity is the same
// rendering of the normalized config.
//
// Configs that cannot be named declaratively are not cacheable: trace-replay
// streams (the stream is stateful and unnamed) and a snapshot callback (a
// live side effect: serving a memoized result would silently skip every
// mid-run publication).
func (c Config) Key() (string, bool) {
	if len(c.Streams) > 0 || c.OnSnapshot != nil {
		return "", false
	}
	return c.render(), true
}

// render writes every behavior-affecting field; Key and the checkpoint
// identity share it.
func (c Config) render() string {
	var b strings.Builder
	s := c.Scheme
	fmt.Fprintf(&b, "scheme=%q|layout=%q:%d:%d|lazy=%t|preread=%t|wc=%t|ecp=%d|tag=%d:%d|",
		s.Name, s.Layout.Name, s.Layout.WordLinePitchF, s.Layout.BitLinePitchF,
		s.LazyCorrection, s.PreRead, s.WriteCancel, s.ECPEntries, s.Tag.N, s.Tag.M)
	fmt.Fprintf(&b, "policykey=%q|", s.BarrierKey())
	fmt.Fprintf(&b, "noverify=%t|nocorrect=%t|enc=%q|hardlife=%g|",
		s.NoVerifyCharge, s.NoCorrectCharge, s.Encoding, s.HardErrorLifetime)
	fmt.Fprintf(&b, "mix=%q/%d", c.Mix.Name, len(c.Mix.Cores))
	for _, name := range c.Mix.Cores {
		fmt.Fprintf(&b, ",%q", name)
	}
	fmt.Fprintf(&b, "|refs=%d|mem=%d|region=%d|wq=%d|seed=%d|psi=%d|mutate=%g|integrity=%t|",
		c.RefsPerCore, c.MemPages, c.RegionPages, c.WriteQueueCap,
		c.Seed, c.WearLevelPsi, c.MutateChunkProb, c.CheckIntegrity)
	fmt.Fprintf(&b, "metrics=%t|trace=%d|heat=%d|snap=%d|",
		c.CollectMetrics, c.TraceEvents, c.HeatmapRegions, c.SnapshotInterval)
	fmt.Fprintf(&b, "coretags=%d", len(c.CoreTags))
	for _, t := range c.CoreTags {
		fmt.Fprintf(&b, ",%d:%d", t.N, t.M)
	}
	// The topology segment is appended only for non-default specs, so every
	// key (and durable store entry) minted before the topology layer existed
	// stays valid.
	if !c.Topology.IsDefault() {
		fmt.Fprintf(&b, "|topo=%q", c.Topology.Canon())
	}
	return b.String()
}
