package obs

import (
	"bufio"
	"io"
	"strconv"

	"repro/internal/sim"
)

// Tracer records typed lifecycle events with virtual-cycle timestamps.
// Each record is rendered as Chrome trace_event JSON and written to
// the JSON sink as it happens, through one buffered writer, so a
// traced run holds no per-event state.
//
// Every method is safe (and allocation-free) on a nil receiver, so
// instrumented subsystems can hold a nil *Tracer when tracing is off.
// In the trace, the "process" (pid) is the protection domain and the
// "thread" (tid) is a per-owner track, assigned in first-seen order.
// Metadata records land just before their first use: a process_name
// when the domain is registered, a thread_name just before the first
// event on its (pid, tid) track.
type Tracer struct {
	json io.Writer
	w    *bufio.Writer // buffers json

	buf     []byte // scratch for one rendered record
	tids    map[string]uint32
	nextTid uint32
	named   map[uint64]bool // pid<<32|tid pairs with thread_name metadata written
}

type kvArg struct{ k, v string }

type event struct {
	ph    byte // 'X' complete span, 'i' instant
	cat   string
	name  string
	pid   uint32
	tid   uint32
	ts    sim.Cycles
	dur   sim.Cycles
	args  [3]kvArg
	nargs int
}

// engineTid is the reserved track for engine-level events (event
// fires); owner tracks start at 1.
const engineTid uint32 = 0

// newTracer writes the JSON document header and the engine track's
// thread_name record, so every later record follows a separator.
func newTracer(json io.Writer) *Tracer {
	t := &Tracer{
		json:    json,
		w:       bufio.NewWriterSize(json, 1<<16),
		tids:    map[string]uint32{},
		nextTid: engineTid + 1,
		named:   map[uint64]bool{},
	}
	t.w.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	t.w.Write(appendThreadName(t.buf[:0], 0, engineTid, "engine"))
	return t
}

// Process writes a protection domain's process_name record (shown as
// the track group title in Perfetto).
func (t *Tracer) Process(pid uint32, name string) {
	if t == nil {
		return
	}
	t.buf = append(t.buf[:0], ",\n"...)
	t.buf = append(t.buf, `{"name":"process_name","ph":"M","pid":`...)
	t.buf = strconv.AppendUint(t.buf, uint64(pid), 10)
	t.buf = append(t.buf, `,"args":{"name":`...)
	t.buf = strconv.AppendQuote(t.buf, name)
	t.buf = append(t.buf, "}}"...)
	t.w.Write(t.buf)
}

// track returns the tid for an owner name, assigning one on first
// sight, and writes the thread_name record the first time this
// pid/tid pair appears.
func (t *Tracer) track(pid uint32, owner string) uint32 {
	tid, ok := t.tids[owner]
	if !ok {
		tid = t.nextTid
		t.nextTid++
		t.tids[owner] = tid
	}
	key := uint64(pid)<<32 | uint64(tid)
	if !t.named[key] {
		t.named[key] = true
		t.buf = appendThreadName(append(t.buf[:0], ",\n"...), pid, tid, owner)
		t.w.Write(t.buf)
	}
	return tid
}

func appendThreadName(buf []byte, pid, tid uint32, name string) []byte {
	buf = append(buf, `{"name":"thread_name","ph":"M","pid":`...)
	buf = strconv.AppendUint(buf, uint64(pid), 10)
	buf = append(buf, `,"tid":`...)
	buf = strconv.AppendUint(buf, uint64(tid), 10)
	buf = append(buf, `,"args":{"name":`...)
	buf = strconv.AppendQuote(buf, name)
	return append(buf, "}}"...)
}

func (t *Tracer) emit(ev event) {
	t.buf = appendEvent(append(t.buf[:0], ",\n"...), &ev)
	t.w.Write(t.buf)
}

// EngineFire records one event-handler execution on the engine track
// (sim.Engine fires the handler with interrupts masked, so the span is
// the full interrupt-processing time). Zero-duration fires are elided.
func (t *Tracer) EngineFire(began, ended sim.Cycles) {
	if t == nil || ended == began {
		return
	}
	t.emit(event{ph: 'X', cat: "engine", name: "fire", pid: 0, tid: engineTid, ts: began, dur: ended - began})
}

// Idle records a span the CPU spent idle (charged to the Idle
// pseudo-owner, per Table 1).
func (t *Tracer) Idle(began, ended sim.Cycles) {
	if t == nil {
		return
	}
	ev := event{ph: 'X', cat: "engine", name: "idle", pid: 0, ts: began, dur: ended - began}
	ev.tid = t.track(0, "Idle")
	t.emit(ev)
}

// Syscall records one kernel entry: the op name, the issuing domain
// and owner, and whether the ACL denied it.
func (t *Tracer) Syscall(dom uint32, owner, op string, began, ended sim.Cycles, denied bool) {
	if t == nil {
		return
	}
	ev := event{ph: 'X', cat: "syscall", name: op, pid: dom, ts: began, dur: ended - began}
	ev.tid = t.track(dom, owner)
	if denied {
		ev.args[0] = kvArg{"result", "denied"}
		ev.nargs = 1
	}
	t.emit(ev)
}

// ThreadSpawn records thread creation.
func (t *Tracer) ThreadSpawn(dom uint32, owner, thread string, at sim.Cycles) {
	if t == nil {
		return
	}
	ev := event{ph: 'i', cat: "thread", name: "spawn", pid: dom, ts: at}
	ev.tid = t.track(dom, owner)
	ev.args[0] = kvArg{"thread", thread}
	ev.nargs = 1
	t.emit(ev)
}

// ThreadSlice records one scheduling slice: from the kernel handing
// the CPU to the thread until it came back, with the reason it came
// back ("yield", "block", "pause", "exit", "kill").
func (t *Tracer) ThreadSlice(dom uint32, owner, thread string, began, ended sim.Cycles, end string) {
	if t == nil {
		return
	}
	ev := event{ph: 'X', cat: "thread", name: "slice", pid: dom, ts: began, dur: ended - began}
	ev.tid = t.track(dom, owner)
	ev.args[0] = kvArg{"thread", thread}
	ev.args[1] = kvArg{"end", end}
	ev.nargs = 2
	t.emit(ev)
}

// ThreadExit records thread retirement.
func (t *Tracer) ThreadExit(dom uint32, owner, thread string, at sim.Cycles) {
	if t == nil {
		return
	}
	ev := event{ph: 'i', cat: "thread", name: "exit", pid: dom, ts: at}
	ev.tid = t.track(dom, owner)
	ev.args[0] = kvArg{"thread", thread}
	ev.nargs = 1
	t.emit(ev)
}

// Cross records a kernel-mediated protection-domain crossing (§3.2),
// spanning entry to return; the span lives in the target domain's
// process group.
func (t *Tracer) Cross(owner string, from, to uint32, began, ended sim.Cycles) {
	if t == nil {
		return
	}
	ev := event{ph: 'X', cat: "domain", name: "cross", pid: to, ts: began, dur: ended - began}
	ev.tid = t.track(to, owner)
	ev.args[0] = kvArg{"from", strconv.Itoa(int(from))}
	ev.args[1] = kvArg{"to", strconv.Itoa(int(to))}
	ev.nargs = 2
	t.emit(ev)
}

// TLBFlush records a full TLB invalidation (the OSF1 PAL bug: every
// crossing flushes, which is what makes the worst-case configuration
// pay reload penalties — Figure 9's larger Accounting_PD slowdown).
func (t *Tracer) TLBFlush(dom uint32, owner string, at sim.Cycles) {
	if t == nil {
		return
	}
	ev := event{ph: 'i', cat: "domain", name: "tlbFlush", pid: dom, ts: at}
	ev.tid = t.track(dom, owner)
	t.emit(ev)
}

// PathCreate records an incremental pathCreate walk (§3.1).
func (t *Tracer) PathCreate(path string, stages int, began, ended sim.Cycles) {
	if t == nil {
		return
	}
	ev := event{ph: 'X', cat: "path", name: "pathCreate", pid: 0, ts: began, dur: ended - began}
	ev.tid = t.track(0, path)
	ev.args[0] = kvArg{"stages", strconv.Itoa(stages)}
	ev.nargs = 1
	t.emit(ev)
}

// PathDestroy records an orderly pathDestroy (destructors run).
func (t *Tracer) PathDestroy(path string, began, ended sim.Cycles) {
	if t == nil {
		return
	}
	ev := event{ph: 'X', cat: "path", name: "pathDestroy", pid: 0, ts: began, dur: ended - began}
	ev.tid = t.track(0, path)
	t.emit(ev)
}

// PathKill records a summary pathKill — the containment primitive
// measured in Table 2 — with the cycles reclamation took.
func (t *Tracer) PathKill(path string, reclaimed sim.Cycles, began, ended sim.Cycles) {
	if t == nil {
		return
	}
	ev := event{ph: 'X', cat: "path", name: "pathKill", pid: 0, ts: began, dur: ended - began}
	ev.tid = t.track(0, path)
	ev.args[0] = kvArg{"cycles", strconv.FormatUint(uint64(reclaimed), 10)}
	ev.nargs = 1
	t.emit(ev)
}

// Demux records one demultiplexing decision at interrupt time (§2.2):
// outcome is "found" (module chain), "pattern" (classifier fast
// path), or "reject"; detail is the identified path's name, or the
// reject reason. Rejects land on a shared "interrupt" track since no
// owner was identified.
func (t *Tracer) Demux(entry, outcome, detail string, began, ended sim.Cycles) {
	if t == nil {
		return
	}
	ev := event{ph: 'X', cat: "path", name: "demux", pid: 0, ts: began, dur: ended - began}
	ev.args[0] = kvArg{"entry", entry}
	ev.args[1] = kvArg{"outcome", outcome}
	if outcome == "reject" {
		ev.tid = t.track(0, "interrupt")
		ev.args[2] = kvArg{"reason", detail}
	} else {
		ev.tid = t.track(0, detail)
		ev.args[2] = kvArg{"path", detail}
	}
	ev.nargs = 3
	t.emit(ev)
}

// IOBufAlloc records an IOBuffer allocation (§3.3) and whether it was
// served from the no-cleaning reuse cache.
func (t *Tracer) IOBufAlloc(owner string, pages int, hit bool, at sim.Cycles) {
	if t == nil {
		return
	}
	ev := event{ph: 'i', cat: "iobuf", name: "alloc", pid: 0, ts: at}
	ev.tid = t.track(0, owner)
	ev.args[0] = kvArg{"pages", strconv.Itoa(pages)}
	cache := "miss"
	if hit {
		cache = "hit"
	}
	ev.args[1] = kvArg{"cache", cache}
	ev.nargs = 2
	t.emit(ev)
}

// Fault records a fault-injection or hardware-loss event as an instant
// on the owner's (or NIC's) track: kind is "netDrop", "netCorrupt",
// "netDup", "netDelay", "linkFlap", "partition", "failpoint", or
// "txDrop"; detail names the failpoint or carries free-form context.
func (t *Tracer) Fault(kind, owner, detail string, at sim.Cycles) {
	if t == nil {
		return
	}
	ev := event{ph: 'i', cat: "fault", name: kind, pid: 0, ts: at}
	ev.tid = t.track(0, owner)
	if detail != "" {
		ev.args[0] = kvArg{"detail", detail}
		ev.nargs = 1
	}
	t.emit(ev)
}

// Policy records a policy trigger (§4.4): kind is "synCapDrop",
// "maxRuntime", "protFault", "penaltyRecord", "penaltyRoute",
// "watchdogDemote", "watchdogKill", or "overloadShed"; owner names the
// track the event lands on; detail is free-form.
func (t *Tracer) Policy(kind, owner, detail string, at sim.Cycles) {
	if t == nil {
		return
	}
	ev := event{ph: 'i', cat: "policy", name: kind, pid: 0, ts: at}
	ev.tid = t.track(0, owner)
	if detail != "" {
		ev.args[0] = kvArg{"detail", detail}
		ev.nargs = 1
	}
	t.emit(ev)
}

// flush closes the JSON document and flushes it to the sink. The
// bufio.Writer keeps the first write error, so a failed write during
// the run is reported here.
func (t *Tracer) flush() error {
	t.w.WriteString("\n]}\n")
	return t.w.Flush()
}

// appendEvent renders one event as a trace_event JSON object.
// Timestamps are microseconds of virtual time (cycles / 300 at the
// simulated 300 MHz clock), formatted with fixed precision so
// identical runs produce identical bytes.
func appendEvent(buf []byte, ev *event) []byte {
	buf = append(buf, `{"name":`...)
	buf = strconv.AppendQuote(buf, ev.name)
	buf = append(buf, `,"cat":`...)
	buf = strconv.AppendQuote(buf, ev.cat)
	buf = append(buf, `,"ph":"`...)
	buf = append(buf, ev.ph)
	buf = append(buf, `","ts":`...)
	buf = appendMicros(buf, ev.ts)
	if ev.ph == 'X' {
		buf = append(buf, `,"dur":`...)
		buf = appendMicros(buf, ev.dur)
	}
	if ev.ph == 'i' {
		buf = append(buf, `,"s":"t"`...)
	}
	buf = append(buf, `,"pid":`...)
	buf = strconv.AppendUint(buf, uint64(ev.pid), 10)
	buf = append(buf, `,"tid":`...)
	buf = strconv.AppendUint(buf, uint64(ev.tid), 10)
	if ev.nargs > 0 {
		buf = append(buf, `,"args":{`...)
		for a := 0; a < ev.nargs; a++ {
			if a > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendQuote(buf, ev.args[a].k)
			buf = append(buf, ':')
			buf = strconv.AppendQuote(buf, ev.args[a].v)
		}
		buf = append(buf, '}')
	}
	return append(buf, '}')
}

// appendMicros formats a cycle count as microseconds of virtual time
// with fixed 3-digit precision (cycle resolution at 300 MHz is 1/300
// µs, so three digits lose nothing that matters and keep the output
// deterministic).
func appendMicros(buf []byte, c sim.Cycles) []byte {
	return strconv.AppendFloat(buf, float64(c)/float64(sim.CyclesPerMicrosecond), 'f', 3, 64)
}
