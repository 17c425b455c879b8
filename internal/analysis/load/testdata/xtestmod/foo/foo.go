// Package foo keeps a count its tests read through export_test.go.
package foo

// Counter counts.
type Counter struct{ n int }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }
