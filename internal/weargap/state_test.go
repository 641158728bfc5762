package weargap

import (
	"testing"

	"sdpcm/internal/pcm"
	"sdpcm/internal/snap"
)

// TestDecodeRejectsOutOfRangeState: counters must lie inside psi and
// rotation offsets inside the row, or a resumed run would map lines outside
// their row.
func TestDecodeRejectsOutOfRangeState(t *testing.T) {
	const psi, n = 8, pcm.LinesPerPage - 1
	for _, tc := range []struct {
		name                    string
		shared, row, start, gap int
	}{
		{"valid", 3, 0, n - 1, n},
		{"shared counter at psi", psi, 0, 0, n},
		{"negative row counter", 0, -1, 0, n},
		{"start past the row", 0, 0, n, n},
		{"gap past the spare slot", 0, 0, 0, n + 1},
	} {
		e := snap.NewEncoder(1)
		e.Begin("weargap.intrarow")
		e.Int(tc.shared)
		e.U64(0)
		e.Uvarint(1)
		e.Uvarint(0) // the row's page
		e.Int(tc.row)
		e.Int(tc.start)
		e.Int(tc.gap)
		e.U64(0)
		e.U64(0)
		e.End()
		d, err := snap.NewDecoder(e.Finish(), 1)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewIntraRow(psi)
		if err != nil {
			t.Fatal(err)
		}
		err = w.DecodeState(d)
		if (err == nil) != (tc.name == "valid") {
			t.Errorf("%s: DecodeState err = %v", tc.name, err)
		}
	}
}
