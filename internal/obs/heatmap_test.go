package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"sdpcm/internal/pcm"
	"sdpcm/internal/wd"
)

func sampleHeatmap() *wd.HeatmapSnapshot {
	h := wd.NewHeatmap(4, 64)
	h.RecordInjected(pcm.DefaultGeometry.AddrOf(pcm.Loc{Bank: 0, Row: 0, Slot: 0}), 12)
	h.RecordInjected(pcm.DefaultGeometry.AddrOf(pcm.Loc{Bank: 3, Row: 48, Slot: 5}), 3)
	h.RecordParked(pcm.DefaultGeometry.AddrOf(pcm.Loc{Bank: 3, Row: 48, Slot: 5}), 2)
	h.RecordCorrection(pcm.DefaultGeometry.AddrOf(pcm.Loc{Bank: 1, Row: 16, Slot: 9}), 4, 2)
	return h.Snapshot()
}

func TestWriteHeatmapTable(t *testing.T) {
	var b strings.Builder
	if err := WriteHeatmapTable(&b, sampleHeatmap()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"16 banks x 4 line-regions",
		"injected bit-line flips (total 15)",
		"parked errors (LazyCorrection) (total 2)",
		"flushed cells (correction writes) (total 4)",
		"max cascade depth (total 2)",
		"corrections 1, mean cascade depth 2.000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// Bank 3, row 48 of 64 → region 3: its injected count sits in the last
	// column of bank 3's line.
	var bank3 string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "   3") {
			bank3 = line
			break
		}
	}
	if f := strings.Fields(bank3); len(f) != 5 || f[4] != "3" {
		t.Fatalf("bank 3 injected row = %q", bank3)
	}
}

func TestWriteHeatmapTableNil(t *testing.T) {
	var b strings.Builder
	if err := WriteHeatmapTable(&b, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "heatmap disabled") {
		t.Fatalf("nil table = %q", b.String())
	}
}

func TestWriteHeatmapJSONRoundTrip(t *testing.T) {
	s := sampleHeatmap()
	var b strings.Builder
	if err := WriteHeatmapJSON(&b, s); err != nil {
		t.Fatal(err)
	}
	var back wd.HeatmapSnapshot
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatal(err)
	}
	if back.Banks != s.Banks || back.Regions != s.Regions {
		t.Fatalf("round trip changed shape: %+v", back)
	}
	if got := back.Total(func(c wd.HeatCell) uint64 { return c.Injected }); got != 15 {
		t.Fatalf("round-trip injected = %d", got)
	}
}
