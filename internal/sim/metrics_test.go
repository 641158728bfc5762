package sim

import (
	"encoding/json"
	"reflect"
	"testing"

	"sdpcm/internal/core"
	"sdpcm/internal/ecp"
	"sdpcm/internal/mc"
	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
	"sdpcm/internal/wd"
)

// metricsCfg is quickCfg with collection (and optionally tracing) enabled.
func metricsCfg(scheme core.Scheme, bench string, traceEvents int) Config {
	cfg := quickCfg(scheme, bench)
	cfg.CollectMetrics = true
	cfg.TraceEvents = traceEvents
	return cfg
}

// TestStatsRowsCoverEveryCounter: each component's Stats lists every uint64
// field in exactly one row, so a counter added without a row — which would
// then neither fold, publish nor survive a checkpoint — fails here. Metric
// names are unique across the components, as the snapshot merges them.
func TestStatsRowsCoverEveryCounter(t *testing.T) {
	var (
		mcS  mc.Stats
		devS pcm.Stats
		ecpS ecp.Stats
		wdS  wd.Stats
	)
	names := map[string]bool{}
	for _, tc := range []struct {
		stats any // pointer to the Stats value the rows point into
		rows  []metrics.Field
	}{
		{&mcS, mcS.Counters()},
		{&devS, devS.Counters()},
		{&ecpS, ecpS.Counters()},
		{&wdS, wdS.Counters()},
	} {
		v := reflect.ValueOf(tc.stats).Elem()
		fields := map[uintptr]string{}
		for i := range v.NumField() {
			if v.Field(i).Kind() == reflect.Uint64 {
				fields[v.Field(i).Addr().Pointer()] = v.Type().Field(i).Name
			}
		}
		if len(tc.rows) != len(fields) {
			t.Errorf("%s: %d rows for %d uint64 fields", v.Type(), len(tc.rows), len(fields))
		}
		covered := map[uintptr]bool{}
		for _, r := range tc.rows {
			p := reflect.ValueOf(r.V).Pointer()
			if _, ok := fields[p]; !ok {
				t.Errorf("%s: row %q does not point at one of its uint64 fields", v.Type(), r.Name)
			}
			if covered[p] {
				t.Errorf("%s: field %s has more than one row (second: %q)", v.Type(), fields[p], r.Name)
			}
			covered[p] = true
			if names[r.Name] {
				t.Errorf("metric name %q is declared twice", r.Name)
			}
			names[r.Name] = true
		}
	}
}

func TestMetricsDisabledByDefault(t *testing.T) {
	r := run(t, quickCfg(core.LazyC(6), "lbm"))
	if r.Metrics != nil {
		t.Fatal("Metrics must be nil when collection is off")
	}
}

func TestMetricsSnapshotMatchesStats(t *testing.T) {
	r := run(t, metricsCfg(core.LazyCPreRead(6), "mcf", 0))
	if r.Metrics == nil {
		t.Fatal("no snapshot despite CollectMetrics")
	}
	s := r.Metrics
	// The snapshot's published counters must agree with the Result's own
	// Stats structs — one source of truth, two views.
	checks := []struct {
		name string
		want uint64
	}{
		{"mc.write_ops", r.MC.WriteOps},
		{"mc.demand_reads", r.MC.DemandReads},
		{"mc.lazy_records", r.MC.LazyRecords},
		{"wd.writes_observed", r.WD.WritesObserved},
		{"ecp.wd_recorded", r.ECP.WDRecorded},
		{"pcm.writes", r.Dev.Writes},
		{"sim.instructions", r.Instructions},
	}
	for _, c := range checks {
		if got := s.Counter(c.name); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if got := s.Gauge("sim.cycles"); got != r.Cycles {
		t.Errorf("sim.cycles = %d, want %d", got, r.Cycles)
	}
	// The new distributions must have seen real traffic.
	if hp, ok := s.Histogram("mc.read_latency"); !ok || hp.Count == 0 {
		t.Error("mc.read_latency histogram empty")
	}
	if hp, ok := s.Histogram("mc.queue_depth_at_enqueue"); !ok || hp.Count == 0 {
		t.Error("mc.queue_depth_at_enqueue histogram empty")
	}
}

func TestMetricsDeterministic(t *testing.T) {
	// Same config, same seed: the snapshots must be byte-identical JSON,
	// including the event tail (TraceEvents implies collection).
	cfg := metricsCfg(core.LazyCPreRead(6), "mcf", 0)
	cfg.CollectMetrics = false
	cfg.TraceEvents = 256
	a := run(t, cfg)
	b := run(t, cfg)
	if a.Metrics == nil || b.Metrics == nil {
		t.Fatal("TraceEvents alone should enable collection")
	}
	ja, err := json.Marshal(a.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	jb, _ := json.Marshal(b.Metrics)
	if string(ja) != string(jb) {
		t.Fatalf("snapshots differ between identical runs:\n%s\n%s", ja, jb)
	}
	if !a.Metrics.Equal(b.Metrics) {
		t.Fatal("Equal() disagrees with JSON identity")
	}
	if len(a.Metrics.Events) == 0 {
		t.Fatal("no events traced on a write-heavy LazyC+PreRead run")
	}
}

// TestTraceEventsBounded: a run keeps one ring of TraceEvents events, the
// run's last ones in emission order — every bank of every module (multiCfg
// has two) emits into it — so the tail's Seq runs contiguously from
// EventsDropped.
func TestTraceEventsBounded(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"one-module", metricsCfg(core.LazyCPreRead(6), "mcf", 32)},
		{"two-module", multiCfg()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := run(t, tc.cfg).Metrics
			if n := len(m.Events); n != tc.cfg.TraceEvents {
				t.Fatalf("trace kept %d events, cap %d", n, tc.cfg.TraceEvents)
			}
			if m.EventsDropped == 0 {
				t.Fatalf("expected drops with a %d-event ring on a full run", tc.cfg.TraceEvents)
			}
			for i, e := range m.Events {
				if want := m.EventsDropped + uint64(i); e.Seq != want {
					t.Fatalf("Events[%d].Seq = %d, want %d", i, e.Seq, want)
				}
			}
		})
	}
}
