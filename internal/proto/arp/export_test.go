package arp

import "repro/internal/netsim"

// Lookup resolves an IP to a MAC from the cache.
func (m *Module) Lookup(ip uint32) (netsim.MAC, bool) {
	mac, ok := m.cache[ip]
	return mac, ok
}
