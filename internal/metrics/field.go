package metrics

import "sdpcm/internal/snap"

// Field is one row of a component's counter list: the counter's metric name
// and a pointer to its uint64 field. Each Stats type declares its rows once,
// in field order; folding, snapshot rendering and checkpointing all walk
// them, so a counter is named and persisted in exactly one place.
type Field struct {
	Name string
	V    *uint64
}

// AddFields adds each src row's value into the dst row at the same index.
// Both lists must come from the same Stats type.
func AddFields(dst, src []Field) {
	for i, f := range dst {
		*f.V += *src[i].V
	}
}

// AppendCounters appends one point per row, zero values included.
func AppendCounters(ps []CounterPoint, rows []Field) []CounterPoint {
	for _, f := range rows {
		ps = append(ps, CounterPoint{Name: f.Name, Value: *f.V})
	}
	return ps
}

// EncodeFields writes the rows' values in row order.
func EncodeFields(e *snap.Encoder, rows []Field) {
	for _, f := range rows {
		e.U64(*f.V)
	}
}

// DecodeFields restores the rows' values written by EncodeFields.
func DecodeFields(d *snap.Decoder, rows []Field) {
	for _, f := range rows {
		*f.V = d.U64()
	}
}
