package load

import "testing"

// TestXTestSeesExportTestHelpers loads a module whose external test
// package calls a method defined in the package's export_test.go, on a
// value it built and on one returned by another package that imports
// the package under test. go test builds it, so the loader must too.
func TestXTestSeesExportTestHelpers(t *testing.T) {
	l := NewLoader("testdata/xtestmod", true)
	pkgs, errs, err := l.LoadAll("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range errs {
		t.Error(e)
	}
	var xtest *Package
	for _, p := range pkgs {
		if p.ImportPath == "xtestmod/foo_test" {
			xtest = p
		}
	}
	if xtest == nil {
		t.Fatal("the external test package xtestmod/foo_test was not loaded")
	}
	uses := 0
	for id, obj := range xtest.Info.Uses {
		if id.Name == "N" && obj.Pkg().Path() == "xtestmod/foo" {
			uses++
		}
	}
	if uses != 2 {
		t.Fatalf("foo_test resolves %d uses of the export_test.go helper N, want 2", uses)
	}
}
