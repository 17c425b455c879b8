// Package module implements Scout's unit of configurability (§2.1):
// modules composed into a module graph at build time. An edge records
// only that two modules may talk; the Go interfaces a stage binds to
// (fs.Reader, scsi.BlockReader) are the typed service interfaces, and
// nothing checks them at configuration time. Edges define the only
// channels of communication between protection domains — the second of
// Escort's four policy-enforcement levels. Filters (§2.5) are modules
// whose purpose is policy rather than functionality; a generic filter
// combinator lives in filter.go.
package module

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/kernel"
	"repro/internal/lib"
	"repro/internal/msg"
)

// Direction orients data flow along a path. Up moves toward stage 0 (the
// storage end in the web-server graph); Down moves toward the last stage
// (the network device).
type Direction int

// Flow directions.
const (
	Up Direction = iota
	Down
)

// Module is the unit of program development. Its functions receive the
// calling environment explicitly (the *kernel.Ctx / builder arguments),
// since module code can be instantiated in several protection domains.
// A module learns its configuration name from its graph node at Init.
type Module interface {
	// Init initializes module-global state (charged to the module's
	// protection domain). It runs once at boot, in domain order.
	Init(ic *InitCtx) error
	// CreateStage is the module's open function during incremental path
	// creation: it returns the module's stage (path-local state) and the
	// name of the next module to visit ("" terminates the path). attrs
	// is valid only for the call: a stage copies out the values it
	// keeps and never holds the map.
	CreateStage(pb PathBuilder, attrs lib.Attrs) (Stage, string, error)
	// Demux classifies an incoming message (§2.2): continue at an
	// adjacent module, reject, or return the unique path. Demux must be
	// side-effect free.
	Demux(m *msg.Msg) Verdict
}

// Stage is a module's path-specific state plus its processing functions.
type Stage interface {
	// Deliver processes a message moving through the stage. forward
	// reports whether the message continues to the next stage (a consumed
	// message — e.g. a bare ACK absorbed by TCP — stops here). A non-nil
	// error aborts processing and frees the message.
	Deliver(ctx *kernel.Ctx, dir Direction, m *msg.Msg) (forward bool, err error)
	// Destroy is the module's registered destructor, run (in the module's
	// protection domain) by pathDestroy but not pathKill.
	Destroy(ctx *kernel.Ctx)
}

// StageHandle is a stage's connection back to its path, given to the
// module at CreateStage time. It is implemented by the path package.
type StageHandle interface {
	// Path returns the owning path.
	Path() PathRef
	// Index returns the stage's position in the path.
	Index() int
	// SendDown injects m below this stage (toward the network device),
	// running the remaining stages on the calling thread.
	SendDown(ctx *kernel.Ctx, m *msg.Msg) error
}

// PathBuilder is the incremental path-creation context handed to each
// module's CreateStage.
type PathBuilder interface {
	// Kernel returns the kernel.
	Kernel() *kernel.Kernel
	// PathOwner returns the owner of the path being created.
	PathOwner() *core.Owner
	// Handle returns the stage handle the new stage will occupy.
	Handle() StageHandle
	// Stages returns the stages created so far (earlier modules), so a
	// stage can bind to a neighbor's extended interface (HTTP finding the
	// file-access interface of FS). The slice is valid only during the
	// CreateStage call.
	Stages() []Stage
	// NodeAt returns the graph node of the i-th stage created so far
	// (to learn a neighbor's protection domain for crossing calls).
	NodeAt(i int) *Node
}

// PathRef is the path interface visible to modules (the full object
// lives in the path package).
type PathRef interface {
	// PathOwner returns the path's owner.
	PathOwner() *core.Owner
	// PathName returns the path's name.
	PathName() string
	// EnqueueControl schedules fn to run on the path's thread, in the
	// domain of stage idx. TCP timers and handshake continuations use it.
	EnqueueControl(idx int, fn func(ctx *kernel.Ctx, st Stage)) error
	// Alive reports whether the path has not been destroyed.
	Alive() bool
	// FindStage returns the index of the first stage contributed by the
	// named module.
	FindStage(name string) (int, bool)
	// Spawn starts a thread owned by the path that may cross the path's
	// protection domains (the CGI handler, the QoS stream producer).
	Spawn(name string, fn func(ctx *kernel.Ctx))
	// RequestDestroy schedules an orderly pathDestroy on the path's own
	// worker thread (module code runs nested inside crossings, where a
	// direct destroy would unwind itself).
	RequestDestroy()
}

// KillHook is module-level per-path state that pathKill must reclaim,
// since a kill runs no destructors. A path takes one, through an
// OnKill(KillHook) method (the TCP connection registers itself), and
// calls PathKilled while the path's owner can still receive refunds.
type KillHook interface {
	PathKilled()
}

// PathFactory creates paths; implemented by the path manager and used by
// module Init / deliver code (the TCP module creating an active path).
type PathFactory interface {
	// CreatePath builds a path from module start on. attrs is valid
	// only for the call; the caller may reuse the map afterwards.
	CreatePath(ctx *kernel.Ctx, name, start string, attrs lib.Attrs) (PathRef, error)
}

// InboundFn hands a received message to the demultiplexer; it reports
// whether the message reached a path. The path manager provides it.
type InboundFn func(entry string, m *msg.Msg) bool

// InitCtx is the module initialization environment.
type InitCtx struct {
	K       *kernel.Kernel
	Node    *Node
	Paths   PathFactory
	Inbound InboundFn
}

// VerdictKind classifies demux outcomes.
type VerdictKind int

// Demux outcomes: continue at another module, reject (drop), or a
// uniquely identified path.
const (
	VerdictContinue VerdictKind = iota
	VerdictReject
	VerdictFound
)

// Verdict is a demux decision.
type Verdict struct {
	Kind   VerdictKind
	Next   string  // VerdictContinue: adjacent module to ask next
	Path   PathRef // VerdictFound: the identified path
	Reason string  // VerdictReject: diagnostic
}

// Continue asks the named adjacent module next.
func Continue(next string) Verdict { return Verdict{Kind: VerdictContinue, Next: next} }

// Reject drops the message.
func Reject(reason string) Verdict { return Verdict{Kind: VerdictReject, Reason: reason} }

// Found returns the identified path.
func Found(p PathRef) Verdict { return Verdict{Kind: VerdictFound, Path: p} }

// Node is a module instance placed in a protection domain.
type Node struct {
	name  string
	mod   Module
	dom   *domain.Domain
	edges map[string]struct{} // neighbor names
}

// Name returns the node's configuration name.
func (n *Node) Name() string { return n.name }

// Mod returns the module implementation.
func (n *Node) Mod() Module { return n.mod }

// Domain returns the node's protection domain.
func (n *Node) Domain() *domain.Domain { return n.dom }

// ConnectedTo reports whether an edge to the named node exists.
func (n *Node) ConnectedTo(name string) bool {
	_, ok := n.edges[name]
	return ok
}

// Graph is the build-time module graph.
type Graph struct {
	k     *kernel.Kernel
	nodes map[string]*Node
	order []string // insertion order, for deterministic init
}

// NewGraph returns an empty graph for the kernel.
func NewGraph(k *kernel.Kernel) *Graph {
	return &Graph{k: k, nodes: make(map[string]*Node)}
}

// Kernel returns the kernel the graph is configured into.
func (g *Graph) Kernel() *kernel.Kernel { return g.k }

// Add places a module instance in the graph under the given name (module
// code can be multiply instantiated under different names), assigned to
// the protection domain domName ("" or "kernel" = the privileged
// domain). The domain must already exist.
func (g *Graph) Add(name string, mod Module, domName string) *Node {
	if _, dup := g.nodes[name]; dup {
		panic(fmt.Sprintf("module: duplicate node %q", name))
	}
	var d *domain.Domain
	if domName == "" || domName == "kernel" {
		d = g.k.Domains().Kernel()
	} else {
		var ok bool
		d, ok = g.k.Domains().ByName(domName)
		if !ok {
			panic(fmt.Sprintf("module: unknown domain %q for node %q", domName, name))
		}
	}
	n := &Node{name: name, mod: mod, dom: d, edges: make(map[string]struct{})}
	g.nodes[name] = n
	g.order = append(g.order, name)
	return n
}

// Connect records a bidirectional edge between two nodes. Both must
// already be in the graph.
func (g *Graph) Connect(a, b string) {
	na, nb := g.nodes[a], g.nodes[b]
	if na == nil || nb == nil {
		panic(fmt.Sprintf("module: connect %q-%q: missing node", a, b))
	}
	na.edges[b] = struct{}{}
	nb.edges[a] = struct{}{}
}

// Node returns a node by name.
func (g *Graph) Node(name string) (*Node, bool) {
	n, ok := g.nodes[name]
	return n, ok
}

// MustNode returns a node or panics (configuration-time lookups).
func (g *Graph) MustNode(name string) *Node {
	n, ok := g.nodes[name]
	if !ok {
		panic(fmt.Sprintf("module: unknown node %q", name))
	}
	return n
}

// Nodes returns all nodes in insertion order.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, 0, len(g.order))
	for _, name := range g.order {
		out = append(out, g.nodes[name])
	}
	return out
}

// Init boots every module: the kernel switches to each module's domain
// and calls its init function (§2.3). Module init cost is charged to the
// module's domain owner.
func (g *Graph) Init(paths PathFactory, inbound InboundFn) error {
	for _, name := range g.order {
		n := g.nodes[name]
		ic := &InitCtx{K: g.k, Node: n, Paths: paths, Inbound: inbound}
		if err := n.mod.Init(ic); err != nil {
			return fmt.Errorf("module %q init: %w", name, err)
		}
	}
	return nil
}
