package foo_test

import (
	"testing"

	"xtestmod/bar"
	"xtestmod/foo"
)

// TestInc reads the count through the export_test.go helper, on a
// Counter built here and on one built by a package that imports foo.
func TestInc(t *testing.T) {
	var c foo.Counter
	c.Inc()
	d := bar.New()
	d.Inc()
	if c.N() != 1 || d.N() != 1 {
		t.Fatal("count")
	}
}
