package main

import "testing"

func TestKnownExp(t *testing.T) {
	for _, name := range append([]string{"all"}, experiments...) {
		if !knownExp(name) {
			t.Errorf("knownExp(%q) = false", name)
		}
	}
	for _, name := range []string{"fig12", "Fig8", "", "table", "all "} {
		if knownExp(name) {
			t.Errorf("knownExp(%q) = true", name)
		}
	}
}
