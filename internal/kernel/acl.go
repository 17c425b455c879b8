package kernel

import (
	"errors"
	"fmt"

	"repro/internal/domain"
	"repro/internal/sim"
)

// ErrAccessDenied is returned when the ACL rejects a syscall.
var ErrAccessDenied = errors.New("kernel: access denied")

// Op enumerates the Escort syscall surface. The paper: "Escort currently
// implements 52 system calls that provide access to the following kernel
// objects: paths, IObuffers, threads, events, semaphores, memory pages,
// devices, and the console." The enumeration below reconstructs that
// surface from the operations the paper describes.
type Op int

// The syscall surface, grouped by kernel object.
const (
	// Paths (§3.1).
	OpPathCreate Op = iota
	OpPathDestroy
	OpPathKill
	OpPathEnqueueSource
	OpPathEnqueueSink
	OpPathDequeueSource
	OpPathDequeueSink
	OpPathExtend
	OpPathRef
	OpPathUnref
	OpPathRegisterDestructor
	OpPathStat

	// IOBuffers (§3.3).
	OpIOBufAlloc
	OpIOBufFree
	OpIOBufLock
	OpIOBufUnlock
	OpIOBufAssociate
	OpIOBufSetDirection
	OpIOBufSetTermination
	OpIOBufQuery

	// Threads (§3.2).
	OpThreadSpawn
	OpThreadYield
	OpThreadStop
	OpThreadHandoff
	OpThreadSetLimit
	OpThreadStat

	// Events.
	OpEventRegister
	OpEventCancel
	OpEventStat

	// Semaphores.
	OpSemCreate
	OpSemP
	OpSemV
	OpSemDestroy
	OpSemStat

	// Memory pages (§2.4).
	OpPageAlloc
	OpPageFree
	OpPageStat
	OpHeapCreate

	// Devices.
	OpDeviceOpen
	OpDeviceClose
	OpDeviceRead
	OpDeviceWrite
	OpDeviceControl
	OpDeviceStat

	// Console.
	OpConsoleWrite
	OpConsoleRead

	// Owners, accounting and policy.
	OpOwnerStat
	OpOwnerSetLimits
	OpSchedSetShare
	OpSchedSetPriority
	OpSchedSetDeadline
	OpDomainStat

	// NumOps is the size of the syscall table.
	NumOps
)

var opNames = map[Op]string{
	OpPathCreate: "pathCreate", OpPathDestroy: "pathDestroy", OpPathKill: "pathKill",
	OpPathEnqueueSource: "pathEnqueueSource", OpPathEnqueueSink: "pathEnqueueSink",
	OpPathDequeueSource: "pathDequeueSource", OpPathDequeueSink: "pathDequeueSink",
	OpPathExtend: "pathExtend", OpPathRef: "pathRef", OpPathUnref: "pathUnref",
	OpPathRegisterDestructor: "pathRegisterDestructor", OpPathStat: "pathStat",
	OpIOBufAlloc: "iobufAlloc", OpIOBufFree: "iobufFree", OpIOBufLock: "iobufLock",
	OpIOBufUnlock: "iobufUnlock", OpIOBufAssociate: "iobufAssociate",
	OpIOBufSetDirection: "iobufSetDirection", OpIOBufSetTermination: "iobufSetTermination",
	OpIOBufQuery:  "iobufQuery",
	OpThreadSpawn: "threadSpawn", OpThreadYield: "threadYield", OpThreadStop: "threadStop",
	OpThreadHandoff: "threadHandoff", OpThreadSetLimit: "threadSetLimit", OpThreadStat: "threadStat",
	OpEventRegister: "eventRegister", OpEventCancel: "eventCancel", OpEventStat: "eventStat",
	OpSemCreate: "semCreate", OpSemP: "semP", OpSemV: "semV", OpSemDestroy: "semDestroy",
	OpSemStat:   "semStat",
	OpPageAlloc: "pageAlloc", OpPageFree: "pageFree", OpPageStat: "pageStat",
	OpHeapCreate: "heapCreate",
	OpDeviceOpen: "deviceOpen", OpDeviceClose: "deviceClose", OpDeviceRead: "deviceRead",
	OpDeviceWrite: "deviceWrite", OpDeviceControl: "deviceControl", OpDeviceStat: "deviceStat",
	OpConsoleWrite: "consoleWrite", OpConsoleRead: "consoleRead",
	OpOwnerStat: "ownerStat", OpOwnerSetLimits: "ownerSetLimits",
	OpSchedSetShare: "schedSetShare", OpSchedSetPriority: "schedSetPriority",
	OpSchedSetDeadline: "schedSetDeadline", OpDomainStat: "domainStat",
}

//escort:coldpath diagnostic stringer; the Sprintf fallback formats only unknown opcodes
func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// privilegedOnly is the ACL, the first of Escort's four
// policy-enforcement levels (§2.5): a fixed role table guarding the
// kernel. The privileged domain may issue every syscall; unprivileged
// domains may issue every syscall except the policy-setting ones
// marked here.
var privilegedOnly = [NumOps]bool{
	OpOwnerSetLimits:   true,
	OpSchedSetShare:    true,
	OpSchedSetPriority: true,
	OpSchedSetDeadline: true,
	OpPathKill:         true,
	OpThreadStop:       true,
}

// Syscall charges the kernel-entry cost and checks the ACL against the
// thread's current protection domain. Module code calls this before each
// kernel object operation; a denied call returns ErrAccessDenied without
// performing the operation.
func (c *Ctx) Syscall(op Op) error {
	tr := c.k.tracer
	var began sim.Cycles
	if tr != nil {
		began = c.k.eng.Now()
	}
	c.Use(c.k.model.Syscall + c.k.AccountingTax())
	denied := c.t.curDomain != domain.KernelID && privilegedOnly[op]
	if tr != nil {
		tr.Syscall(uint32(c.t.curDomain), c.t.owner.Name, op.String(), began, c.k.eng.Now(), denied)
	}
	if denied {
		return fmt.Errorf("%w: %s in domain %d", ErrAccessDenied, op, c.t.curDomain)
	}
	return nil
}
