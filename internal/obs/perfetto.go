package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
)

// traceEvent is one record of the Chrome trace-event JSON format, the
// subset Perfetto's trace-processor ingests. Timestamps are in microseconds
// by convention; we write simulated cycles directly, so 1 cycle renders as
// 1 µs in ui.perfetto.dev.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// perfettoCat groups event kinds into Perfetto categories.
func perfettoCat(k metrics.EventKind) string {
	switch k {
	case metrics.EvWDInjected, metrics.EvWDDetected, metrics.EvWDParked,
		metrics.EvWDFlushed, metrics.EvCascadeStep:
		return "wd"
	case metrics.EvPreReadIssued, metrics.EvPreReadForwarded,
		metrics.EvPreReadHit, metrics.EvPreReadCanceled:
		return "preread"
	default:
		return "queue"
	}
}

// perfettoArgs labels the kind-specific A/B payload (mirrors Event.String).
func perfettoArgs(e metrics.Event) map[string]any {
	args := map[string]any{"line": e.Addr, "seq": e.Seq}
	switch e.Kind {
	case metrics.EvWDInjected:
		args["flips"] = e.A
	case metrics.EvWDDetected:
		args["errors"], args["depth"] = e.A, e.B
	case metrics.EvWDParked:
		args["errors"], args["occupied"] = e.A, e.B
	case metrics.EvWDFlushed:
		args["corrected"], args["depth"] = e.A, e.B
	case metrics.EvCascadeStep:
		args["next_depth"] = e.A
	case metrics.EvPreReadIssued, metrics.EvPreReadForwarded, metrics.EvPreReadCanceled:
		args["entry"] = e.A
	case metrics.EvWriteCancel:
		args["queued"] = e.A
	case metrics.EvQueueEnqueue, metrics.EvQueueStall:
		args["depth"] = e.A
	case metrics.EvQueueDrain:
		args["residency"] = e.A
	}
	return args
}

// WritePerfetto converts an event-trace tail into Chrome trace-event JSON
// loadable in ui.perfetto.dev: one track (thread) per PCM bank, with
// queue-drain and bursty-drain rendered as duration slices spanning each
// write's queue residency, and the WD / PreRead / queue decision points as
// thread-scoped instants. Output is deterministic for a given event slice
// (one JSON object per line), so small sims can pin it as a golden file.
func WritePerfetto(w io.Writer, events []metrics.Event) error {
	if _, err := fmt.Fprintf(w, "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n"); err != nil {
		return err
	}
	first := true
	emit := func(te traceEvent) error {
		b, err := json.Marshal(te)
		if err != nil {
			return err
		}
		sep := ",\n"
		if first {
			sep = ""
			first = false
		}
		_, err = fmt.Fprintf(w, "%s%s", sep, b)
		return err
	}
	// Metadata first: name every bank track so the timeline reads as the
	// DIMM's bank layout even before any event lands there.
	if err := emit(traceEvent{Name: "process_name", Ph: "M",
		Args: map[string]any{"name": "sdpcm"}}); err != nil {
		return err
	}
	for b := 0; b < pcm.NumBanks; b++ {
		if err := emit(traceEvent{Name: "thread_name", Ph: "M", Tid: b,
			Args: map[string]any{"name": fmt.Sprintf("bank %02d", b)}}); err != nil {
			return err
		}
		if err := emit(traceEvent{Name: "thread_sort_index", Ph: "M", Tid: b,
			Args: map[string]any{"sort_index": b}}); err != nil {
			return err
		}
	}
	for _, e := range events {
		bank := pcm.DefaultGeometry.Locate(pcm.LineAddr(e.Addr)).Bank
		switch e.Kind {
		case metrics.EvQueueDrain:
			// The slice spans the write's life in the queue: enqueue
			// (Time - residency) to drain execution start (Time).
			name := "queue-drain"
			if e.B == 1 {
				name = "bursty-drain"
			}
			ts := e.Time - e.A // residency <= Time by construction
			if err := emit(traceEvent{Name: name, Cat: "queue", Ph: "X",
				Ts: ts, Dur: e.A, Tid: bank, Args: perfettoArgs(e)}); err != nil {
				return err
			}
		default:
			if err := emit(traceEvent{Name: e.Kind.String(), Cat: perfettoCat(e.Kind),
				Ph: "i", Ts: e.Time, Tid: bank, S: "t", Args: perfettoArgs(e)}); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintf(w, "\n]}\n")
	return err
}
