package path

import (
	"testing"
	"unsafe"
)

// pathSizeClass is the Go allocator size class a Path fits in. The next
// class up is 1024 bytes, so one byte more than this makes every path
// allocation 144 B larger: one path per connection, so 144 B per
// connection on every workload, well past the 1% bound on allocated
// KiB per connection the host-cost benchmark holds a change to.
const pathSizeClass = 896

// TestPathFitsSizeClass guards the size of the path object, whose first
// field is the Owner: a field added to either must not push a Path into
// the next size class.
func TestPathFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Path{}); n > pathSizeClass {
		t.Fatalf("unsafe.Sizeof(Path{}) = %d bytes, over the %d-byte size class", n, pathSizeClass)
	}
}
