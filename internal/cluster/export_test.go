package cluster

// Joined reports how many callers wait on the in-flight pull of id.
func (n *Node) Joined(id string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.inflight[id]; ok {
		return p.joined
	}
	return 0
}
