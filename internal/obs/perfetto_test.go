package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenEvents is a fixed tail covering every event kind, with addresses
// spread over several banks (page = addr/64, bank = page mod 16).
func goldenEvents() []metrics.Event {
	mk := func(seq, time uint64, k metrics.EventKind, addr, a, b uint64) metrics.Event {
		return metrics.Event{Seq: seq, Time: time, Kind: k, Addr: addr, A: a, B: b}
	}
	return []metrics.Event{
		mk(1, 100, metrics.EvQueueEnqueue, 0, 3, 0),
		mk(2, 150, metrics.EvWDInjected, 64, 2, 0),
		mk(3, 200, metrics.EvWDDetected, 64, 2, 1),
		mk(4, 240, metrics.EvWDParked, 128, 1, 4),
		mk(5, 300, metrics.EvQueueDrain, 0, 200, 0), // slice 100..300
		mk(6, 320, metrics.EvCascadeStep, 128, 1, 0),
		mk(7, 350, metrics.EvWDFlushed, 128, 3, 1),
		mk(8, 400, metrics.EvPreReadIssued, 192, 7, 0),
		mk(9, 420, metrics.EvPreReadForwarded, 192, 7, 0),
		mk(10, 440, metrics.EvPreReadCanceled, 256, 2, 0),
		mk(11, 460, metrics.EvPreReadHit, 192, 0, 0),
		mk(12, 500, metrics.EvWriteCancel, 320, 5, 0),
		mk(13, 540, metrics.EvQueueStall, 384, 32, 0),
		mk(14, 600, metrics.EvQueueDrain, 64, 50, 1), // bursty slice 550..600
	}
}

func TestWritePerfettoGolden(t *testing.T) {
	var b bytes.Buffer
	if err := WritePerfetto(&b, goldenEvents()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "perfetto_golden.json")
	if *update {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -update` to create it)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("perfetto output drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", b.Bytes(), want)
	}
}

// perfettoFile mirrors the JSON shape for parse-back checks.
type perfettoFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

func TestWritePerfettoStructure(t *testing.T) {
	events := goldenEvents()
	var b bytes.Buffer
	if err := WritePerfetto(&b, events); err != nil {
		t.Fatal(err)
	}
	var f perfettoFile
	if err := json.Unmarshal(b.Bytes(), &f); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	// Metadata: one process name, one thread_name + one thread_sort_index
	// per bank — the "one track per bank" acceptance criterion.
	threadNames := map[int]bool{}
	var meta, data int
	for _, te := range f.TraceEvents {
		if te.Ph == "M" {
			meta++
			if te.Name == "thread_name" {
				threadNames[te.Tid] = true
			}
			continue
		}
		data++
	}
	if len(threadNames) != pcm.NumBanks {
		t.Fatalf("%d named bank tracks, want %d", len(threadNames), pcm.NumBanks)
	}
	if meta != 1+2*pcm.NumBanks {
		t.Fatalf("metadata records = %d, want %d", meta, 1+2*pcm.NumBanks)
	}
	if data != len(events) {
		t.Fatalf("data records = %d, want %d", data, len(events))
	}
	// Queue drains become duration slices spanning the queue residency;
	// everything else is a thread-scoped instant on its line's bank track.
	for i, te := range f.TraceEvents[meta:] {
		e := events[i]
		wantBank := pcm.DefaultGeometry.Locate(pcm.LineAddr(e.Addr)).Bank
		if te.Tid != wantBank {
			t.Errorf("event %d on tid %d, want bank %d", i, te.Tid, wantBank)
		}
		if e.Kind == metrics.EvQueueDrain {
			if te.Ph != "X" || te.Ts != e.Time-e.A || te.Dur != e.A {
				t.Errorf("drain %d rendered %+v, want X slice [%d, %d)", i, te, e.Time-e.A, e.Time)
			}
			wantName := "queue-drain"
			if e.B == 1 {
				wantName = "bursty-drain"
			}
			if te.Name != wantName {
				t.Errorf("drain %d named %q, want %q", i, te.Name, wantName)
			}
		} else if te.Ph != "i" || te.S != "t" || te.Ts != e.Time {
			t.Errorf("instant %d rendered %+v", i, te)
		}
	}
}

func TestWritePerfettoEmpty(t *testing.T) {
	var b bytes.Buffer
	if err := WritePerfetto(&b, nil); err != nil {
		t.Fatal(err)
	}
	var f perfettoFile
	if err := json.Unmarshal(b.Bytes(), &f); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) != 1+2*pcm.NumBanks {
		t.Fatalf("empty trace should still name every bank track, got %d records", len(f.TraceEvents))
	}
}
