package main

import "testing"

// TestMainRuns runs the example end to end, so that go test ./...
// catches an example an API change has broken at run time.
func TestMainRuns(t *testing.T) { main() }
