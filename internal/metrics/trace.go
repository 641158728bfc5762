package metrics

import (
	"encoding/json"
	"fmt"
)

// EventKind labels one event-trace record type. The set mirrors the
// controller's decision points: where write disturbance is injected and
// detected, how LazyCorrection and cascades resolve it, how PreRead and
// write cancellation steal bank time, and the write queue's life cycle.
type EventKind uint8

const (
	// EvWDInjected: the disturbance engine applied persistent bit-line
	// flips to a vertically adjacent line. Addr = victim line, A = flips.
	EvWDInjected EventKind = iota
	// EvWDDetected: a post-write verification read found disturbed cells.
	// Addr = victim line, A = new error count, B = cascade depth.
	EvWDDetected
	// EvWDParked: LazyCorrection absorbed the errors into free ECP entries.
	// Addr = victim line, A = error count, B = entries occupied after.
	EvWDParked
	// EvWDFlushed: a correction write RESET the line's pending errors.
	// Addr = victim line, A = corrected cell count, B = cascade depth.
	EvWDFlushed
	// EvCascadeStep: a correction write triggered verification of its own
	// neighbours. Addr = corrected line, A = next depth.
	EvCascadeStep
	// EvPreReadIssued: a pre-write read occupied bank idle time.
	// Addr = neighbour line read, A = entry id.
	EvPreReadIssued
	// EvPreReadForwarded: a pre-write read was satisfied from a queued
	// write's buffer at no bank cost. Addr = neighbour line, A = entry id.
	EvPreReadForwarded
	// EvPreReadHit: a write op started with both pre-reads already buffered
	// (the §4.3 payoff). Addr = written line.
	EvPreReadHit
	// EvPreReadCanceled: a demand read aborted an in-flight pre-read.
	// Addr = neighbour line being read, A = entry id.
	EvPreReadCanceled
	// EvWriteCancel: a demand read preempted a lazy drain at a write-op
	// boundary (§6.8). Addr = read line.
	EvWriteCancel
	// EvQueueEnqueue: a write entered a bank's write queue.
	// Addr = written line, A = queue depth after.
	EvQueueEnqueue
	// EvQueueStall: a write found its bank queue full and triggered a
	// drain, blocking reads (bursty) or racing them (write cancellation).
	// Addr = incoming line, A = queue depth.
	EvQueueStall
	// EvQueueDrain: one queued write op executed. Addr = written line,
	// A = residency cycles in queue, B = 1 if inside a bursty drain.
	EvQueueDrain
)

var eventKindNames = [...]string{
	EvWDInjected:       "wd-injected",
	EvWDDetected:       "wd-detected",
	EvWDParked:         "wd-parked",
	EvWDFlushed:        "wd-flushed",
	EvCascadeStep:      "cascade-step",
	EvPreReadIssued:    "preread-issued",
	EvPreReadForwarded: "preread-forwarded",
	EvPreReadHit:       "preread-hit",
	EvPreReadCanceled:  "preread-canceled",
	EvWriteCancel:      "write-cancel",
	EvQueueEnqueue:     "queue-enqueue",
	EvQueueStall:       "queue-stall",
	EvQueueDrain:       "queue-drain",
}

// String returns the event kind's stable wire name.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("kind-%d", uint8(k))
}

// MarshalJSON encodes the kind as its wire name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON accepts a wire name, so /events payloads and snapshot JSON
// round-trip through Event. Malformed JSON fails with encoding/json's typed
// errors, an unknown name with *UnknownKindError.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range eventKindNames {
		if name == s {
			*k = EventKind(i)
			return nil
		}
	}
	return &UnknownKindError{Name: s}
}

// UnknownKindError reports an event-kind wire name no EventKind carries.
type UnknownKindError struct{ Name string }

func (e *UnknownKindError) Error() string {
	return fmt.Sprintf("metrics: unknown event kind %q", e.Name)
}

// Event is one trace record. Seq is the global emission index (0-based,
// monotonic even after the ring wraps); Time is the simulated cycle of the
// emitting operation; Addr and A/B are kind-specific (see EventKind docs).
// A tail lists events in emission order, not time order: one run's banks
// share one ring, and a bank's operation may be timed before an event
// another bank already emitted, so Time is not monotonic within a tail.
type Event struct {
	Seq  uint64    `json:"seq"`
	Time uint64    `json:"t"`
	Kind EventKind `json:"kind"`
	Addr uint64    `json:"addr"`
	A    uint64    `json:"a,omitempty"`
	B    uint64    `json:"b,omitempty"`
}

// String renders the event with its kind-specific Addr/A/B semantics spelled
// out (see the EventKind docs), e.g. "wd-parked line=93 errors=2 occupied=4".
// Seq and Time are left to the caller — table renderers print them as
// columns of their own.
func (e Event) String() string {
	switch e.Kind {
	case EvWDInjected:
		return fmt.Sprintf("%s line=%d flips=%d", e.Kind, e.Addr, e.A)
	case EvWDDetected:
		return fmt.Sprintf("%s line=%d errors=%d depth=%d", e.Kind, e.Addr, e.A, e.B)
	case EvWDParked:
		return fmt.Sprintf("%s line=%d errors=%d occupied=%d", e.Kind, e.Addr, e.A, e.B)
	case EvWDFlushed:
		return fmt.Sprintf("%s line=%d corrected=%d depth=%d", e.Kind, e.Addr, e.A, e.B)
	case EvCascadeStep:
		return fmt.Sprintf("%s line=%d next-depth=%d", e.Kind, e.Addr, e.A)
	case EvPreReadIssued, EvPreReadForwarded, EvPreReadCanceled:
		return fmt.Sprintf("%s line=%d entry=%d", e.Kind, e.Addr, e.A)
	case EvPreReadHit:
		return fmt.Sprintf("%s line=%d", e.Kind, e.Addr)
	case EvWriteCancel:
		return fmt.Sprintf("%s line=%d queued=%d", e.Kind, e.Addr, e.A)
	case EvQueueEnqueue:
		return fmt.Sprintf("%s line=%d depth=%d", e.Kind, e.Addr, e.A)
	case EvQueueStall:
		return fmt.Sprintf("%s line=%d depth=%d", e.Kind, e.Addr, e.A)
	case EvQueueDrain:
		if e.B == 1 {
			return fmt.Sprintf("%s line=%d residency=%d bursty", e.Kind, e.Addr, e.A)
		}
		return fmt.Sprintf("%s line=%d residency=%d", e.Kind, e.Addr, e.A)
	}
	return fmt.Sprintf("%s addr=%d a=%d b=%d", e.Kind, e.Addr, e.A, e.B)
}

// Trace is a bounded ring buffer of events keeping the most recent cap
// records. A nil *Trace is the disabled form: Emit is a no-op.
type Trace struct {
	buf  []Event
	next uint64 // total events emitted
}

func newTrace(cap int) *Trace {
	return &Trace{buf: make([]Event, 0, cap)}
}

// Emit appends an event, overwriting the oldest once the buffer is full.
// No-op on a nil trace.
func (t *Trace) Emit(time uint64, kind EventKind, addr, a, b uint64) {
	if t == nil {
		return
	}
	e := Event{Seq: t.next, Time: time, Kind: kind, Addr: addr, A: a, B: b}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
	} else {
		t.buf[t.next%uint64(cap(t.buf))] = e
	}
	t.next++
}

// Len returns the number of buffered events (0 on a nil trace).
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// Dropped returns how many emitted events have been overwritten.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.next - uint64(len(t.buf))
}

// Events returns the buffered events in emission order (oldest first).
// The slice is a copy.
func (t *Trace) Events() []Event {
	if t == nil || len(t.buf) == 0 {
		return nil
	}
	out := make([]Event, 0, len(t.buf))
	if len(t.buf) < cap(t.buf) {
		return append(out, t.buf...)
	}
	start := t.next % uint64(cap(t.buf))
	out = append(out, t.buf[start:]...)
	out = append(out, t.buf[:start]...)
	return out
}
