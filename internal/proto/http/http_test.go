package http

import (
	"testing"
)

func TestParseRequestLine(t *testing.T) {
	cases := []struct {
		req    string
		target string
		ok     bool
	}{
		{"GET /doc1 HTTP/1.0\r\n\r\n", "/doc1", true},
		{"GET / HTTP/1.1\r\nHost: x\r\n\r\n", "/", true},
		{"POST /doc1 HTTP/1.0\r\n\r\n", "", false},
		{"GET\r\n\r\n", "", false},
		{"garbage", "", false},
		{"GET /a/b/c?x=1 HTTP/1.0\r\n\r\n", "/a/b/c?x=1", true},
	}
	for _, c := range cases {
		target, ok := parseRequestLine([]byte(c.req))
		if ok != c.ok || string(target) != c.target {
			t.Errorf("parseRequestLine(%q) = %q %v, want %q %v", c.req, target, ok, c.target, c.ok)
		}
	}
}

// The module's serve paths (files, 404, CGI, streaming) are covered by
// the escort integration suite, which drives real conversations through
// a full path; see internal/escort/escort_test.go.
func TestCounters(t *testing.T) {
	m := New("tcp")
	if err := m.Init(nil); err != nil {
		t.Fatal(err)
	}
	if v := m.Demux(nil); v.Reason == "" {
		t.Fatal("demux of non-entry module must reject with a reason")
	}
}
