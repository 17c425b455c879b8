package lib

import "fmt"

// Attrs is the attribute set passed to pathCreate (§2.2): invariants for
// the path such as the peer's address and port, or the trust class of
// the source subnet. Modules read the attributes they understand and
// ignore the rest.
type Attrs map[string]any

// Standard attribute keys used by the modules in this repository.
const (
	AttrLocalPort  = "tcp.localPort"
	AttrRemoteIP   = "ip.remote"
	AttrRemotePort = "tcp.remotePort"
	AttrTrustClass = "policy.trustClass" // "trusted" or "untrusted"
	AttrPassive    = "tcp.passive"
)

// String returns attributes under key as a string; ok is false when absent
// or of another type.
func (a Attrs) String(key string) (string, bool) {
	v, ok := a[key].(string)
	return v, ok
}

// Int returns attributes under key as an int.
func (a Attrs) Int(key string) (int, bool) {
	v, ok := a[key].(int)
	return v, ok
}

// Uint32 returns attributes under key as a uint32.
func (a Attrs) Uint32(key string) (uint32, bool) {
	v, ok := a[key].(uint32)
	return v, ok
}

// Bool returns attributes under key as a bool (absent reads as false).
func (a Attrs) Bool(key string) bool {
	v, _ := a[key].(bool)
	return v
}

// FormatIPv4 renders a host-order IPv4 address in dotted-quad form.
// It is the one IP formatter in the tree; trace events, penalty-box
// records, and endpoint names all route through it.
func FormatIPv4(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// IPv4 assembles a host-order IPv4 address from octets.
func IPv4(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

// ConnKey uniquely identifies a TCP connection (the demux key): local and
// remote participant pair folded into one value.
func ConnKey(localIP uint32, localPort uint16, remoteIP uint32, remotePort uint16) uint64 {
	h := uint64(localIP)*0x9E3779B1 ^ uint64(remoteIP)
	h = h*0x9E3779B97F4A7C15 ^ uint64(localPort)<<16 ^ uint64(remotePort)
	return h
}
