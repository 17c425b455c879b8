package analysis

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSuppressionBudget pins the number of escort suppression comments
// in the module (fixtures excluded). Every annotation is a standing
// claim the analyzers cannot check; the pin forces a PR that adds one
// to say so in the diff, and a PR that makes one unnecessary to delete
// it.
//
// The current set was re-audited against the path-sensitive
// chargebalance engine: removing any one //escort:held below makes
// escort-lint flag its charge site, so none is stale.
//
//	tcp.go     ChargeKmem   TCB, refunded by close
//	thread.go  ChargeStacks per-domain stack, refunded at thread exit
//	heap.go    ChargeKmem   backing bytes, refunded in Destroy
//	heap.go    ChargeKmem   transfer back from a dying owner
//
// The netsim medium's ring growth and the frame pool's miss are the
// coldpath claims on the frame path: frame delivery and Sleep's wakeup
// schedule no closures, and frame storage is recycled. Semaphore
// waiters link through the threads, so blocking claims nothing. The
// path package's 15 claims are its per-path objects (the Path, the
// worker's name, inline stage/handle/domain lists that grow only past
// eight), one live-path list, a second control item while the path's
// own is queued, the constructor, the per-chain crossing table and
// per-domain destroy hook, three Cross closures that stay on the stack
// (the worker's, Destroy's and deliverFrom's), and a miswired-graph
// reject reason. The kernel's ACL is a fixed table and claims nothing.
func TestSuppressionBudget(t *testing.T) {
	want := map[string]int{
		"held":     4,
		"ignore":   0,
		"coldpath": 46,
	}
	got := map[string]int{}

	root := moduleRoot(t)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		af, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range af.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//escort:")
				if !ok {
					continue
				}
				verb := rest
				if i := strings.IndexAny(rest, " \t"); i >= 0 {
					verb = rest[:i]
				}
				got[verb]++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for verb, n := range got {
		if _, known := want[verb]; !known {
			t.Errorf("unknown suppression verb //escort:%s (%d uses)", verb, n)
		}
	}
	for verb, w := range want {
		if got[verb] != w {
			t.Errorf("//escort:%s count = %d, want %d — if the change is deliberate, update the budget with a note on the new claim",
				verb, got[verb], w)
		}
	}
}

// moduleRoot walks up from the working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}
