package fs_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cost"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/lib"
	"repro/internal/module"
	"repro/internal/path"
	"repro/internal/scsi"
	"repro/internal/sim"
)

// env builds a two-module graph (scsi -> fs) with a path through it, so
// the Reader interface can be exercised from a real path thread.
type env struct {
	k    *kernel.Kernel
	fs   *fs.Module
	scsi *scsi.Module
	p    *path.Path
}

func newEnv(t *testing.T, budget int, perDomain bool) *env {
	t.Helper()
	k := kernel.New(sim.New(), cost.Default(), kernel.Config{Accounting: true})
	t.Cleanup(k.Stop)
	scsiMod := scsi.New("fs")
	fsMod := fs.New("", budget)
	fsMod.AddFile("/a", bytes.Repeat([]byte("a"), 4096))
	fsMod.AddFile("/b", bytes.Repeat([]byte("b"), 4096))
	fsMod.AddFile("/c", bytes.Repeat([]byte("c"), 4096))

	g := module.NewGraph(k)
	scsiDom, fsDom := "", ""
	if perDomain {
		k.Domains().Create("scsi")
		k.Domains().Create("fs")
		scsiDom, fsDom = "scsi", "fs"
	}
	g.Add("scsi", scsiMod, scsiDom)
	g.Add("fs", fsMod, fsDom)
	g.Connect("scsi", "fs")
	mgr := path.NewManager(g)
	if err := g.Init(mgr, nil); err != nil {
		t.Fatal(err)
	}
	p, err := mgr.Create(nil, "fspath", "scsi", lib.Attrs{})
	if err != nil {
		t.Fatal(err)
	}
	return &env{k: k, fs: fsMod, scsi: scsiMod, p: p}
}

// read resolves name and reads its inode on the path's thread,
// returning the content length and the virtual time the read took.
func (e *env) read(t *testing.T, name string) (int, sim.Cycles, error) {
	t.Helper()
	var n int
	var err error
	var took sim.Cycles
	done := false
	reader := e.p.StageAt(1).(fs.Reader)
	e.p.Spawn("reader", func(ctx *kernel.Ctx) {
		start := ctx.Now()
		var m interface {
			Len() int
			Free()
		}
		var ino fs.Inode
		if ino, err = reader.Resolve(ctx, name); err == nil {
			m, err = reader.ReadInode(ctx, ino)
		}
		took = ctx.Now() - start
		if err == nil {
			n = m.Len()
			m.Free()
		}
		done = true
	})
	e.k.RunFor(sim.CyclesPerSecond)
	if !done {
		t.Fatal("read never completed")
	}
	return n, took, err
}

func TestReadFileMissThenHit(t *testing.T) {
	e := newEnv(t, 1<<20, false)
	n, missTime, err := e.read(t, "/a")
	if err != nil || n != 4096 {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	if e.fs.Misses != 1 || e.scsi.Reads != 1 {
		t.Fatalf("miss accounting: misses=%d reads=%d", e.fs.Misses, e.scsi.Reads)
	}
	// A cached read skips the disk and is much faster.
	n, hitTime, err := e.read(t, "/a")
	if err != nil || n != 4096 {
		t.Fatalf("second read: n=%d err=%v", n, err)
	}
	if e.fs.Hits != 1 || e.scsi.Reads != 1 {
		t.Fatalf("hit accounting: hits=%d reads=%d", e.fs.Hits, e.scsi.Reads)
	}
	if hitTime*2 > missTime {
		t.Fatalf("cache hit (%d cycles) not much faster than disk miss (%d)", hitTime, missTime)
	}
	// The disk seek alone is 8 ms.
	if missTime < 8*sim.CyclesPerMillisecond {
		t.Fatalf("disk read took %d cycles, less than the seek time", missTime)
	}
}

func TestReadFileNotFound(t *testing.T) {
	e := newEnv(t, 1<<20, false)
	if _, _, err := e.read(t, "/missing"); !errors.Is(err, fs.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestCacheEviction(t *testing.T) {
	// Budget fits two 4 KB files; reading a third evicts the oldest.
	e := newEnv(t, 9000, false)
	for _, name := range []string{"/a", "/b", "/c"} {
		if _, _, err := e.read(t, name); err != nil {
			t.Fatal(err)
		}
	}
	if e.fs.Cached("/a") {
		t.Fatal("oldest entry not evicted")
	}
	if !e.fs.Cached("/b") || !e.fs.Cached("/c") {
		t.Fatal("newer entries evicted")
	}
	// Re-reading the evicted file goes to disk again.
	reads := e.scsi.Reads
	if _, _, err := e.read(t, "/a"); err != nil {
		t.Fatal(err)
	}
	if e.scsi.Reads != reads+1 {
		t.Fatal("evicted file not re-read from disk")
	}
}

func TestReadCrossesDomains(t *testing.T) {
	e := newEnv(t, 1<<20, true)
	flushesBefore, _ := e.k.TLB().Stats()
	if n, _, err := e.read(t, "/a"); err != nil || n != 4096 {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	flushesAfter, _ := e.k.TLB().Stats()
	if flushesAfter == flushesBefore {
		t.Fatal("per-domain read performed no protection-domain crossings")
	}
}

func TestDiskSerializesRequests(t *testing.T) {
	// Two concurrent reads of different files must serialize at the disk:
	// total time >= 2 seeks.
	e := newEnv(t, 1<<20, false)
	reader := e.p.StageAt(1).(fs.Reader)
	done := 0
	start := e.k.Engine().Now()
	for _, name := range []string{"/a", "/b"} {
		name := name
		e.p.Spawn("r", func(ctx *kernel.Ctx) {
			ino, err := reader.Resolve(ctx, name)
			if err != nil {
				return
			}
			if m, err := reader.ReadInode(ctx, ino); err == nil {
				m.Free()
				done++
			}
		})
	}
	e.k.RunFor(5 * sim.CyclesPerSecond)
	if done != 2 {
		t.Fatalf("done = %d", done)
	}
	elapsed := e.k.Engine().Now() - start
	_ = elapsed
	if e.scsi.Reads != 2 || e.scsi.BytesRead != 8192 {
		t.Fatalf("disk stats: reads=%d bytes=%d", e.scsi.Reads, e.scsi.BytesRead)
	}
}
