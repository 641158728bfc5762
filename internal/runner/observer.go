package runner

import (
	"fmt"
	"io"
	"time"

	"sdpcm/internal/sim"
)

// PointEvent describes one completed sweep point.
type PointEvent struct {
	// Index/Total locate the point within its RunContext call's spec list.
	Index, Total int
	Spec         Spec
	// Wall is the point's wall time, including any wait for a concurrently
	// executing duplicate.
	Wall time.Duration
	// Cached marks a point served from the in-memory memo cache (or
	// coalesced onto a concurrently executing duplicate); Stored marks one
	// answered by the durable MemoStore without a sim.Run call.
	Cached bool
	Stored bool
	Err    error
	// Result is the point's simulation outcome (nil on error). Cached
	// points carry the memoized result, so per-point metrics snapshots flow
	// through the cache to every observer.
	Result *sim.Result
}

// Observer receives per-point completion events from a Runner. The Runner
// serializes calls, so implementations need no locking of their own.
type Observer interface {
	PointDone(PointEvent)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(PointEvent)

// PointDone implements Observer.
func (f ObserverFunc) PointDone(ev PointEvent) { f(ev) }

// Progress returns an observer streaming one line per completed point to w
// — the sdpcm-bench -progress view.
func Progress(w io.Writer) Observer {
	return ObserverFunc(func(ev PointEvent) {
		status := "run"
		switch {
		case ev.Err != nil:
			status = "err"
		case ev.Cached:
			status = "hit"
		case ev.Stored:
			status = "dsk"
		}
		knobs := ""
		if ev.Spec.QueueCap != 0 {
			knobs += fmt.Sprintf(" wq=%d", ev.Spec.QueueCap)
		}
		if l := ev.Spec.Scheme.HardErrorLifetime; l > 0 {
			knobs += fmt.Sprintf(" life=%g", l)
		}
		fmt.Fprintf(w, "[%3d/%3d] %-3s %-22s %-10s%s %v\n",
			ev.Index+1, ev.Total, status, ev.Spec.Scheme.Name, ev.Spec.Bench,
			knobs, ev.Wall.Round(time.Millisecond))
	})
}

// Multi fans each event out to every observer in order.
func Multi(obs ...Observer) Observer {
	return ObserverFunc(func(ev PointEvent) {
		for _, o := range obs {
			if o != nil {
				o.PointDone(ev)
			}
		}
	})
}
