package obs

import (
	"bufio"
	"strconv"
	"strings"
	"testing"

	"sdpcm/internal/metrics"
)

// parseExposition reads a Prometheus text exposition back into a value map
// (series name with labels -> value) and a type map (metric name -> type).
func parseExposition(t *testing.T, text string) (map[string]uint64, map[string]string) {
	t.Helper()
	values := map[string]uint64{}
	types := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// "<series> <value>": the series may carry a {le="..."} label.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseUint(line[i+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		series := line[:i]
		if _, dup := values[series]; dup {
			t.Fatalf("duplicate series %q", series)
		}
		values[series] = v
	}
	return values, types
}

func TestWritePrometheusParseBack(t *testing.T) {
	r := metrics.New()
	h := r.Histogram("mc.read_latency", []uint64{10, 100})
	for _, v := range []uint64{5, 50, 500} {
		h.Observe(v)
	}
	s := r.Snapshot()
	s.Counters = []metrics.CounterPoint{
		{Name: "mc.read_latency_sum", Value: 777}, // the would-be collision case
		{Name: "mc.write_ops", Value: 42},
	}
	s.Gauges = []metrics.GaugePoint{{Name: "sim.cycles", Value: 123456}}

	var b strings.Builder
	if err := WritePrometheus(&b, s); err != nil {
		t.Fatal(err)
	}
	values, types := parseExposition(t, b.String())

	checks := map[string]uint64{
		"sdpcm_mc_write_ops_total":                  42,
		"sdpcm_mc_read_latency_sum_total":           777,
		"sdpcm_sim_cycles":                          123456,
		"sdpcm_mc_read_latency_bucket{le=\"10\"}":   1,
		"sdpcm_mc_read_latency_bucket{le=\"100\"}":  2,
		"sdpcm_mc_read_latency_bucket{le=\"+Inf\"}": 3,
		"sdpcm_mc_read_latency_sum":                 555,
		"sdpcm_mc_read_latency_count":               3,
	}
	for series, want := range checks {
		if got, ok := values[series]; !ok || got != want {
			t.Errorf("%s = %d (present=%t), want %d", series, got, ok, want)
		}
	}
	wantTypes := map[string]string{
		"sdpcm_mc_write_ops_total":        "counter",
		"sdpcm_mc_read_latency_sum_total": "counter",
		"sdpcm_sim_cycles":                "gauge",
		"sdpcm_mc_read_latency":           "histogram",
	}
	for name, want := range wantTypes {
		if got := types[name]; got != want {
			t.Errorf("TYPE %s = %q, want %q", name, got, want)
		}
	}
	// The raw counter must not have produced a series that shadows the
	// histogram's _sum (the collision the _total suffix exists to avoid).
	if values["sdpcm_mc_read_latency_sum"] != 555 {
		t.Error("histogram _sum series corrupted by the raw *_sum counter")
	}
}

func TestWritePrometheusNilAndDeterminism(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, nil); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("nil snapshot rendered %q", b.String())
	}
	snapshot := func() *metrics.Snapshot {
		return &metrics.Snapshot{Counters: []metrics.CounterPoint{{Name: "a.first", Value: 1}, {Name: "b.second", Value: 1}}}
	}
	var x, y strings.Builder
	WritePrometheus(&x, snapshot())
	WritePrometheus(&y, snapshot())
	if x.String() != y.String() {
		t.Fatal("equal snapshots rendered differently")
	}
	if strings.Index(x.String(), "sdpcm_a_first") > strings.Index(x.String(), "sdpcm_b_second") {
		t.Fatal("exposition lost the snapshot's name-sorted order")
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"mc.write_ops": "sdpcm_mc_write_ops",
		"wd-rate":      "sdpcm_wd_rate",
		"a b":          "sdpcm_a_b",
		"ok_name:sub":  "sdpcm_ok_name:sub",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWritePrometheusLabeled: every series carries the label set, histogram
// buckets merge it with le, and values escape correctly.
func TestWritePrometheusLabeled(t *testing.T) {
	r := metrics.New()
	h := r.Histogram("mc.read_latency", []uint64{10})
	h.Observe(5)
	h.Observe(50)
	s := r.Snapshot()
	s.Counters = []metrics.CounterPoint{{Name: "mc.write_ops", Value: 42}}
	s.Gauges = []metrics.GaugePoint{{Name: "sim.cycles", Value: 9}}

	var b strings.Builder
	if err := WritePrometheusLabeled(&b, s, []Label{{Name: "job", Value: "job-1"}}); err != nil {
		t.Fatal(err)
	}
	values, types := parseExposition(t, b.String())

	want := map[string]uint64{
		`sdpcm_mc_write_ops_total{job="job-1"}`:               42,
		`sdpcm_sim_cycles{job="job-1"}`:                       9,
		`sdpcm_mc_read_latency_bucket{job="job-1",le="10"}`:   1,
		`sdpcm_mc_read_latency_bucket{job="job-1",le="+Inf"}`: 2,
		`sdpcm_mc_read_latency_sum{job="job-1"}`:              55,
		`sdpcm_mc_read_latency_count{job="job-1"}`:            2,
	}
	for series, v := range want {
		if values[series] != v {
			t.Errorf("%s = %d, want %d\nexposition:\n%s", series, values[series], v, b.String())
		}
	}
	if types["sdpcm_mc_read_latency"] != "histogram" {
		t.Errorf("histogram TYPE missing: %v", types)
	}

	// Unlabeled rendering must be byte-identical to WritePrometheus.
	var plain, labeled strings.Builder
	sn := r.Snapshot()
	if err := WritePrometheus(&plain, sn); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheusLabeled(&labeled, sn, nil); err != nil {
		t.Fatal(err)
	}
	if plain.String() != labeled.String() {
		t.Error("nil-label rendering diverged from WritePrometheus")
	}
}

// TestLabelEscaping: quotes, backslashes and newlines in label values must
// not corrupt the exposition.
func TestLabelEscaping(t *testing.T) {
	s := &metrics.Snapshot{Counters: []metrics.CounterPoint{{Name: "x", Value: 1}}}
	var b strings.Builder
	if err := WritePrometheusLabeled(&b, s, []Label{{Name: "job", Value: "a\"b\\c\nd"}}); err != nil {
		t.Fatal(err)
	}
	want := `sdpcm_x_total{job="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaped series missing:\n%s\nwant substring %q", b.String(), want)
	}
}
