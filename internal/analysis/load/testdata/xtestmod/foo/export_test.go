package foo

// N exposes the count to the external tests.
func (c *Counter) N() int { return c.n }
