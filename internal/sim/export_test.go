package sim

// Live reports whether the event is still pending.
func (h Handle) Live() bool {
	return h.qe != nil && h.qe.gen == h.gen && !h.qe.dead && h.qe.index >= 0
}
