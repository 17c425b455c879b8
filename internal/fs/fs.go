// Package fs implements the simple file system module (FS in Figure 1):
// an in-memory namespace backed by the SCSI module, with a block cache
// so repeated requests for the same document are served from memory —
// the paper's web-server workload requests the same document, so the
// first fetch hits the disk and the rest the cache.
package fs

import (
	"errors"
	"fmt"

	"repro/internal/domain"
	"repro/internal/iobuf"
	"repro/internal/kernel"
	"repro/internal/lib"
	"repro/internal/mem"
	"repro/internal/module"
	"repro/internal/msg"
	"repro/internal/scsi"
	"repro/internal/sim"
)

// ErrNotFound is returned for unknown paths.
var ErrNotFound = errors.New("fs: file not found")

// Inode identifies a file independent of its name.
type Inode uint64

// Resolver is the name-resolution service interface (§3.1): it turns a
// path name into an inode. HTTP resolves once, then reads by inode.
type Resolver interface {
	Resolve(ctx *kernel.Ctx, name string) (Inode, error)
}

// Reader is the file-access service interface (§3.1) the HTTP module
// binds to.
type Reader interface {
	Resolver
	// ReadInode returns the file's contents as a message charged to the
	// calling path's owner.
	ReadInode(ctx *kernel.Ctx, ino Inode) (*msg.Msg, error)
}

// Module is the file system.
type Module struct {
	httpName string

	files   map[string][]byte
	inodes  map[string]Inode
	byInode map[Inode]string
	nextIno Inode
	cached  map[string]bool
	lru     []string
	budget  int
	used    int

	node *module.Node
	iom  *iobuf.Manager
	bufs map[string]*iobuf.Hold // cached blocks held in IOBuffers

	// Hits and Misses count block-cache outcomes.
	Hits, Misses uint64
	// Associations counts IOBuffer second-owner associations (the web
	// cache pattern of §3.3).
	Associations uint64
}

// New returns a file system whose open walk continues at httpName, with
// a block cache of budget bytes.
func New(httpName string, budget int) *Module {
	return &Module{
		httpName: httpName,
		files:    make(map[string][]byte),
		inodes:   make(map[string]Inode),
		byInode:  make(map[Inode]string),
		cached:   make(map[string]bool),
		budget:   budget,
	}
}

// AddFile installs a file (configuration time) and assigns its inode.
func (m *Module) AddFile(name string, content []byte) {
	m.files[name] = content
	if _, ok := m.inodes[name]; !ok {
		m.nextIno++
		m.inodes[name] = m.nextIno
		m.byInode[m.nextIno] = name
	}
}

// Init implements module.Module: the block cache stores file contents
// in IOBuffers owned by the FS module's protection domain — the paper's
// web-cache example (§3.3): "it allows the protection domain that
// manages the cache to allocate the IOBuffer, and later map the buffer
// into all protection domains traversed by paths that use the cached
// data", with each such path fully charged for the buffer.
func (m *Module) Init(ic *module.InitCtx) error {
	m.node = ic.Node
	m.iom = iobuf.NewManager(ic.K)
	m.bufs = make(map[string]*iobuf.Hold)
	return nil
}

// CreateStage implements module.Module: bind to the SCSI stage below.
func (m *Module) CreateStage(pb module.PathBuilder, attrs lib.Attrs) (module.Stage, string, error) {
	st := &stage{mod: m, k: pb.Kernel()}
	if stages := pb.Stages(); len(stages) > 0 {
		disk, ok := stages[len(stages)-1].(scsi.BlockReader)
		if !ok {
			return nil, "", fmt.Errorf("fs: stage below is not a block reader")
		}
		st.disk = disk
		st.diskDomain = pb.NodeAt(len(stages) - 1).Domain().ID()
	}
	return st, m.httpName, nil
}

// Demux implements module.Module: the file system is never a network
// entry.
func (m *Module) Demux(*msg.Msg) module.Verdict {
	return module.Reject("fs: not a network module")
}

type stage struct {
	mod        *Module
	k          *kernel.Kernel
	disk       scsi.BlockReader
	diskDomain domain.ID
}

var _ Reader = (*stage)(nil)

// Resolve implements Resolver: the name-resolution half of the file
// service.
func (s *stage) Resolve(ctx *kernel.Ctx, name string) (Inode, error) {
	ctx.Use(s.k.Model().FSLookup + s.k.AccountingTax())
	ino, ok := s.mod.inodes[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return ino, nil
}

// ReadInode implements Reader.
func (s *stage) ReadInode(ctx *kernel.Ctx, ino Inode) (*msg.Msg, error) {
	m := s.mod
	model := s.k.Model()
	name, ok := m.byInode[ino]
	if !ok {
		return nil, fmt.Errorf("%w: inode %d", ErrNotFound, ino)
	}
	content := m.files[name]
	if !m.cached[name] {
		m.Misses++
		if s.disk != nil {
			var err error
			ctx.Cross(s.diskDomain, func() {
				err = s.disk.ReadBlocks(ctx, len(content))
			})
			if err != nil {
				return nil, err
			}
		}
		m.insert(ctx, name, content)
	} else {
		m.Hits++
	}
	ctx.Use(model.FSCacheHit + sim.Cycles(len(content))*model.PerByte)

	// Serve from the cached IOBuffer when one exists: associate it with
	// the requesting path (which is fully charged for it — the paper
	// accepts charging more than is used), check the read against the
	// simulated mapping, release the association, and copy the bytes
	// once, into the reply message.
	if hold, ok := m.bufs[name]; ok {
		buf := hold.Buffer()
		assoc, err := m.iom.Associate(ctx, buf, ctx.Owner(),
			iobuf.MapSpec{Current: m.node.Domain().ID()})
		if err == nil {
			m.Associations++
			rerr := buf.ReadAt(m.node.Domain().ID(), 0, nil) // the mapping check alone
			m.iom.Unlock(ctx, assoc)
			if rerr == nil {
				return msg.FromBytes(ctx.Owner(), buf.Bytes()[:len(content)]), nil
			}
		}
	}
	return msg.FromBytes(ctx.Owner(), content), nil
}

// insert adds a file to the cache, evicting FIFO under budget pressure.
// A file larger than the whole budget is not cached at all.
func (m *Module) insert(ctx *kernel.Ctx, name string, content []byte) {
	size := len(content)
	if m.budget > 0 && size > m.budget {
		return
	}
	for m.budget > 0 && m.used+size > m.budget && len(m.lru) > 0 {
		victim := m.lru[0]
		m.lru = m.lru[1:]
		m.used -= len(m.files[victim])
		delete(m.cached, victim)
		m.dropBuf(ctx, victim)
	}
	m.cached[name] = true
	m.used += size
	m.lru = append(m.lru, name)

	// Stage the content in an IOBuffer owned by the FS domain.
	if m.iom != nil && m.node != nil {
		pages := (size + mem.PageSize - 1) / mem.PageSize
		if pages == 0 {
			pages = 1
		}
		dom := m.node.Domain()
		hold, err := m.iom.Alloc(ctx, &dom.Owner, pages, iobuf.MapSpec{Current: dom.ID()})
		if err == nil {
			if werr := hold.Buffer().WriteAt(dom.ID(), 0, content); werr == nil {
				m.bufs[name] = hold
			} else {
				m.iom.Unlock(ctx, hold)
			}
		}
	}
}

// dropBuf releases an evicted file's IOBuffer.
func (m *Module) dropBuf(ctx *kernel.Ctx, name string) {
	if hold, ok := m.bufs[name]; ok {
		delete(m.bufs, name)
		m.iom.Unlock(ctx, hold)
	}
}

// Deliver implements module.Stage (no message flow through FS in this
// configuration; file access uses the Reader interface).
func (s *stage) Deliver(ctx *kernel.Ctx, dir module.Direction, mm *msg.Msg) (bool, error) {
	return dir == module.Up, nil
}

// Destroy implements module.Stage.
func (s *stage) Destroy(*kernel.Ctx) {}
