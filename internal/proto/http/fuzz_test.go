package http

import (
	"fmt"
	"strings"
	"testing"
)

// refParseRequestLine is the field-list form of the parser: cut the
// first line, split it with strings.Fields.
func refParseRequestLine(req string) (string, bool) {
	line, _, ok := strings.Cut(req, "\r\n")
	if !ok {
		return "", false
	}
	parts := strings.Fields(line)
	if len(parts) < 2 || parts[0] != "GET" {
		return "", false
	}
	return parts[1], true
}

// FuzzParseRequestLine checks the byte parser against the strings.Fields
// reference: the same target and ok for every input, and no panic. The
// checked-in corpus (testdata/fuzz/FuzzParseRequestLine) holds tabs,
// runs of spaces, Unicode and invalid-UTF-8 separators, a missing CRLF
// and non-GET methods, so plain go test runs them.
func FuzzParseRequestLine(f *testing.F) {
	f.Add([]byte("GET /doc1 HTTP/1.0\r\nHost: server\r\n\r\n"))
	f.Fuzz(func(t *testing.T, req []byte) {
		target, ok := parseRequestLine(req)
		wantTarget, wantOK := refParseRequestLine(string(req))
		if ok != wantOK || string(target) != wantTarget {
			t.Fatalf("parseRequestLine(%q) = %q %v, reference %q %v", req, target, ok, wantTarget, wantOK)
		}
	})
}

// TestAppendHeaderMatchesSprintf: the appended header is byte for byte
// the fmt.Sprintf form of the same header.
func TestAppendHeaderMatchesSprintf(t *testing.T) {
	for _, c := range []struct {
		status string
		n      int
	}{{"200 OK", 0}, {"200 OK", 1}, {"200 OK", 10240}, {"404 Not Found", 9}, {"400 Bad Request", 11}, {"200 OK", 1 << 40}} {
		want := fmt.Sprintf("HTTP/1.0 %s\r\nServer: Escort\r\nContent-Length: %d\r\n\r\n", c.status, c.n)
		if got := appendHeader([]byte("prefix"), c.status, c.n); string(got) != "prefix"+want {
			t.Errorf("appendHeader(%q, %d) = %q, want %q", c.status, c.n, got, want)
		}
	}
}
