package pcm

// The arena's block size: 1<<arenaShift elements per block (16 KB of lines).
const (
	arenaShift = 8
	arenaBlock = 1 << arenaShift
	arenaMask  = arenaBlock - 1
)

// Arena is an append-only store of T in fixed blocks: element i lives at
// blocks[i>>arenaShift][i&arenaMask], so growth allocates one new block and
// never copies, and a pointer to an element stays valid until a Reset.
// Index 0 is never handed out, so callers can use it to mean "absent"; the
// first block arrives with the first Add. The zero value is empty.
type Arena[T any] struct {
	blocks []*[arenaBlock]T
	n      uint32 // next index to hand out; 0 until the first Add
}

// At returns element i, which Add must have handed out.
func (a *Arena[T]) At(i uint32) *T { return &a.blocks[i>>arenaShift][i&arenaMask] }

// Add stores v under a fresh index and returns it, never 0.
func (a *Arena[T]) Add(v T) uint32 {
	if a.n == 0 {
		a.n = 1
	}
	if int(a.n>>arenaShift) == len(a.blocks) {
		a.blocks = append(a.blocks, new([arenaBlock]T))
	}
	i := a.n
	a.n++
	*a.At(i) = v
	return i
}

// Reset drops every element and keeps the blocks for reuse.
func (a *Arena[T]) Reset() { a.n = 0 }
