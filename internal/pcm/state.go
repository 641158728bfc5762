package pcm

import "sdpcm/internal/snap"

// encodeStats writes one Stats value field by field; keep in lockstep with
// decodeStats and Stats.Add.
func encodeStats(e *snap.Encoder, s Stats) {
	e.U64(s.Reads)
	e.U64(s.Writes)
	e.U64(s.ResetPulses)
	e.U64(s.SetPulses)
	e.U64(s.CorrectionWrites)
	e.U64(s.CorrectionResetPulses)
	e.U64(s.DisturbedBits)
}

func decodeStats(d *snap.Decoder, s *Stats) {
	s.Reads = d.U64()
	s.Writes = d.U64()
	s.ResetPulses = d.U64()
	s.SetPulses = d.U64()
	s.CorrectionWrites = d.U64()
	s.CorrectionResetPulses = d.U64()
	s.DisturbedBits = d.U64()
}

// EncodeLine writes one line image as eight fixed words.
func EncodeLine(e *snap.Encoder, l Line) {
	for _, w := range l {
		e.U64(w)
	}
}

// DecodeLine reads one line image.
func DecodeLine(d *snap.Decoder) Line {
	var l Line
	for i := range l {
		l[i] = d.U64()
	}
	return l
}

// EncodeState serializes the device's mutable state: per-bank counters and,
// for every touched chunk in ascending chunk index, its residency bitmap and
// resident lines in bit order. Geometry, timing and the background fill are
// construction parameters and are not stored — decode targets a freshly
// built Device of the same Config.
func (d *Device) EncodeState(e *snap.Encoder) {
	e.Begin("pcm.device")
	for b := range d.store {
		st := &d.store[b]
		encodeStats(e, d.stats[b].Stats)
		e.Uvarint(uint64(len(st.hdrs) - 1))
		for ci, h := range st.chunks {
			if h == 0 {
				continue
			}
			hdr := &st.hdrs[h]
			var resident uint64
			for i, s := range hdr {
				if s != 0 {
					resident |= 1 << i
				}
			}
			e.Uvarint(uint64(ci))
			e.U64(resident)
			for _, s := range hdr {
				if s != 0 {
					EncodeLine(e, st.lines[s])
				}
			}
		}
	}
	e.End()
}

// DecodeState restores state written by EncodeState into a device freshly
// constructed with the same Config. Chunk indices must ascend strictly and
// every bitmap must name at least one line, as EncodeState writes them.
func (d *Device) DecodeState(dec *snap.Decoder) error {
	dec.Begin("pcm.device")
	for b := range d.store {
		st := &d.store[b]
		decodeStats(dec, &d.stats[b].Stats)
		if len(st.hdrs) > 1 {
			clear(st.chunks)
			st.hdrs, st.lines = st.hdrs[:1], st.lines[:1]
		}
		n := dec.Count()
		next := uint64(0) // lowest chunk index the next entry may name
		for k := 0; k < n && dec.Err() == nil; k++ {
			ci := dec.Uvarint()
			resident := dec.U64()
			switch {
			case dec.Err() != nil:
			case ci >= uint64(len(st.chunks)):
				dec.Invalid("pcm: checkpoint chunk index %d out of range (bank %d has %d)", ci, b, len(st.chunks))
			case ci < next:
				dec.Invalid("pcm: checkpoint chunk index %d of bank %d repeats or descends", ci, b)
			case resident == 0:
				dec.Invalid("pcm: checkpoint chunk %d of bank %d has an empty residency bitmap", ci, b)
			case resident>>chunkLines != 0:
				dec.Invalid("pcm: checkpoint residency bitmap %#x has bits beyond %d lines", resident, chunkLines)
			}
			if dec.Err() != nil {
				break
			}
			next = ci + 1
			for i := 0; i < chunkLines; i++ {
				if resident&(1<<i) != 0 {
					st.install(int(ci)<<chunkShift|i, DecodeLine(dec))
				}
			}
		}
	}
	dec.End()
	return dec.Err()
}
