// Package bar imports foo, so foo's external tests see bar built
// against foo's test variant.
package bar

import "xtestmod/foo"

// New returns a zero counter.
func New() *foo.Counter { return &foo.Counter{} }
