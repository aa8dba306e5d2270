package topology

// Landmarks returns the selected landmark node ids.
func (e *LandmarkEstimator) Landmarks() []int {
	return append([]int(nil), e.landmarks...)
}

// Degree returns the number of physical links at node i.
func (net *Network) Degree(i int) int {
	if net.compact != nil {
		return int(net.compact.deg[i])
	}
	return len(net.Adj[i])
}
