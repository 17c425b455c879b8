package fs

// Cached reports whether a file is in the block cache.
func (m *Module) Cached(name string) bool { return m.cached[name] }
