package mc

// buffered returns the number of repair records the barrier holds.
func (w *barrier) buffered() int {
	n := 0
	for i := range w.banks {
		n += len(w.banks[i])
	}
	return n
}

// BarrierEvictions and BarrierBuffered read a barrier controller's eviction
// count and held repairs for the package's external tests.
func (c *Controller) BarrierEvictions() uint64 { return c.barrier.evictions }
func (c *Controller) BarrierBuffered() int     { return c.barrier.buffered() }
