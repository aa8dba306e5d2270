package economy

// MinRate returns the smallest rate of the table: the per-MI price of the
// cheapest node, the base of the cheapest-feasible workflow cost. Zero for
// an empty table.
func MinRate(rates []float64) float64 {
	if len(rates) == 0 {
		return 0
	}
	min := rates[0]
	for _, r := range rates[1:] {
		if r < min {
			min = r
		}
	}
	return min
}
