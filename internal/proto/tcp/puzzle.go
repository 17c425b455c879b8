package tcp

import (
	"repro/internal/module"
	"repro/internal/sim"
)

// DefaultPuzzleVerifyCost prices one puzzle verification: a 64-bit
// hash over header fields already in registers, charged to the passive
// path. It is deliberately tiny — the whole point of the hashcash-style
// gate is that the server's per-SYN cost under attack is a verify,
// not a TCB.
const DefaultPuzzleVerifyCost = 120

// PuzzleGate is the client-puzzle fast-reject module on the passive
// path (§4.4.1's drop policy, upgraded from "refuse everyone" to
// "refuse everyone who won't pay"): it activates only while the shed
// predicate reports memory pressure, and then admits exactly the SYNs
// whose initial sequence number proves ~2^Bits of client-side hash
// work (wire.PuzzleSolved). Legitimate clients solve the puzzle and
// ride through the overload; flood sources that don't are rejected at
// a constant verify cost — cheaper than the blanket shed, and unlike
// the blanket shed it keeps goodput alive during the storm.
type PuzzleGate struct {
	// Bits is the puzzle difficulty (trailing zero bits required).
	Bits uint

	// Checked, Passed and Rejected count gate outcomes.
	Checked  uint64
	Passed   uint64
	Rejected uint64
}

// ConnStats is the read-only per-connection view the session-reaper
// policy scans: enough to judge a session's age and byte progress
// without reaching into the TCB.
type ConnStats struct {
	Path  module.PathRef
	State int
	// RemoteIP is the connection's source address, so per-source
	// policies (the adaptive detector) can aggregate sessions without
	// parsing path names.
	RemoteIP uint32
	// Since is when the connection entered SYN_RECVD.
	Since sim.Cycles
	// BytesIn/BytesOut count in-order payload through the connection.
	BytesIn  uint64
	BytesOut uint64
}

// EachConn calls fn for every connection in the demux table (the
// session reaper's scan surface). Iteration order is the hash table's
// — deterministic for a deterministic run, unspecified otherwise.
func (m *Module) EachConn(fn func(ConnStats)) {
	m.conns.Each(func(_ uint64, v any) {
		c := v.(*conn)
		fn(ConnStats{
			Path:     c.path,
			State:    c.state,
			RemoteIP: c.remoteIP,
			Since:    c.synRecvdAt,
			BytesIn:  c.bytesIn,
			BytesOut: c.bytesOut,
		})
	})
}
